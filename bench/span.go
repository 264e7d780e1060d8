package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call bench/ made into a layer. Times are nanoseconds
// since the tracer was created. Parent is the index of the span that caused
// it, or -1 for a root; spans recorded on other goroutines (receive
// callbacks) are roots of their own, so every tree is sequential and its
// self times add up to the root's duration.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
}

// tracer keeps spans in memory until write. While it is off, begin returns
// -1 and records nothing: the untraced pass pays one atomic load per call
// site. begin and end are safe from several goroutines.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu    sync.Mutex
	run   int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// enable switches recording on or off and sets the run id new spans carry.
func (t *tracer) enable(on bool, run int) {
	t.mu.Lock()
	t.run = run
	t.mu.Unlock()
	t.on.Store(on)
}

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if !t.on.Load() {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Run: t.run})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin; id -1 (tracing was off) is a no-op.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of that interval
// its child spans cover (overlapping children are merged first, and clipped
// to the parent).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// rootSelfSums adds, for every root span, the self times of the root and all
// its descendants; for a sequential tree the sum equals the root's duration.
func rootSelfSums(spans []span, self []int64) map[int]int64 {
	sums := map[int]int64{}
	for i := range spans {
		root := i
		for spans[root].Parent >= 0 {
			root = spans[root].Parent
		}
		sums[root] += self[i]
	}
	return sums
}

// durations returns the sorted durations (ns) of every span called name.
func (t *tracer) durations(name string) []float64 {
	var d []float64
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, float64(s.End-s.Start))
		}
	}
	sort.Float64s(d)
	return d
}

// write stores the spans, one JSON object per line with the derived self
// time, in dir/trace-<workload>.jsonl.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		rec := struct {
			ID int `json:"id"`
			span
			Self     int64  `json:"self_ns"`
			Workload string `json:"workload"`
		}{i, s, self[i], workload}
		if err := enc.Encode(rec); err != nil {
			return "", fmt.Errorf("trace write: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return "", fmt.Errorf("trace flush: %w", err)
	}
	return path, f.Close()
}
