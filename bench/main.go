// Command bench is the repository's one benchmark: four named workloads over
// both products (the packet-level simulator and the UDP overlay datapath),
// five end-to-end metrics every workload reports, and a per-layer ledger
// measured from outside by timing calls into each module's exported
// functions. BENCHMARK.json at the repository root is its contract and
// README.md in this directory explains every workload and metric.
//
//	go run ./bench --workload dp-echo-1400B --seed 1 --seconds 24 --trace 0
//	go run ./bench --seed 1        # every workload, untraced then traced
//	go run ./bench --compare bench/out/a/result.json,bench/out/b/result.json
//
// With --workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// scale sizes a run. Only tests use anything but fullScale.
type scale struct {
	wsJobs    int  // TotalJobs of one sim-websearch-asym scheme run
	k16Quick  bool // shrink the k16 scenario with Spec.Quick
	setupReps int  // set-up repetitions whose median is setup_s
	// datapath: warm-up before measuring, one measured slice, one sub-run of
	// the traced pass's mode and size sweep; and one micro-driver batch.
	warmup, slice, subrun, micro time.Duration
}

var (
	fullScale  = scale{4000, false, 5, 2 * time.Second, 2 * time.Second, 3 * time.Second, 20 * time.Millisecond}
	shortScale = scale{80, true, 2, 30 * time.Millisecond, 60 * time.Millisecond, 60 * time.Millisecond, time.Millisecond}
)

// run is one workload run: its inputs, the tracer, and what it found.
type run struct {
	seed   int64
	budget time.Duration // how long to measure
	traced bool
	sc     scale
	nproc  int
	log    io.Writer

	tr        *tracer
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

// check counts one output check; a failed one counts as a failed operation.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// ops counts attempted operations and how many of them failed.
func (r *run) ops(attempted, failed int64, what string) {
	r.attempted += attempted
	r.failed += failed
	if failed > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d of %d %s failed", failed, attempted, what))
	}
}

func (r *run) logf(format string, args ...any) { fmt.Fprintf(r.log, format+"\n", args...) }

type workloadDef struct {
	name, why string
	fn        func(*run) error
}

var workloads = []workloadDef{
	{"sim-websearch-asym", "paper Fig 4c/8b condition on one Simulator: tcp, vswitch and netem do the work, sim.Engine none; all 11 schemes", simWebSearchAsym},
	{"sim-fattree-k16", "1024-host sharded scenario: sim.Engine barrier windows, cross-domain posts and per-domain pools dominate", simFatTreeK16},
	{"dp-saturate-64B", "smallest packet, batched Enqueue+Flush: per-packet pick, shim, ring and syscall cost sets the rate", dpSaturate64B},
	{"dp-echo-1400B", "request-reply with flush-each Send and think time: batch fill 1, wake-up latency and copy cost dominate", dpEcho1400B},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result renders the run's metrics: defs names the set to print, and a
// metric the workload did not produce reads 0.
func (r *run) result(defs []metricDef, vals map[string]float64) result {
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.problems = append(r.problems, fmt.Sprintf("metric %s is not finite", d.name))
			res.Correct = false
			v = 0
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	if res.Attempted < 1 {
		res.Attempted, res.Failed, res.Correct = 1, 1, false
	}
	return res
}

// stamp states what produced the numbers.
func stamp() string {
	return fmt.Sprintf("machine: %s, %s/%s, nproc=%d, GOMAXPROCS=%d, %s\n"+
		"load: one process, one generator goroutine, one tunnel pair in-process over 127.0.0.1 "+
		"(loopback, not a real link), closed loop",
		cpuModel(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown cpu"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown cpu"
}

// runWorkload runs one workload and returns the driver's result line.
func runWorkload(w workloadDef, seed int64, seconds float64, traced bool, sc scale, outDir string, log io.Writer) (result, error) {
	r := &run{
		seed: seed, budget: time.Duration(seconds * float64(time.Second)),
		traced: traced, sc: sc, nproc: runtime.NumCPU(), log: log,
		tr: newTracer(), e2e: map[string]float64{}, layer: map[string]float64{},
	}
	if err := w.fn(r); err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	defs, vals := endToEnd, r.e2e
	if traced {
		r.checkSpanTrees()
		path, err := r.tr.write(outDir, w.name)
		if err != nil {
			return result{}, err
		}
		r.logf("%d spans written to %s", len(r.tr.spans), path)
		defs, vals = perLayer, r.layer
	}
	if r.attempted > 0 {
		r.e2e["ok_frac"] = 1 - float64(r.failed)/float64(r.attempted)
	}
	res := r.result(defs, vals)
	for _, p := range r.problems {
		r.logf("FAILED CHECK: %s", p)
	}
	for _, d := range defs {
		if v := res.Metrics[d.name]; v.Value != 0 {
			r.logf("%-22s %-36s %18.6f %s", w.name, d.name, v.Value, v.Unit)
		}
	}
	return res, nil
}

// checkSpanTrees verifies the trace's arithmetic: under every root span the
// self times add up to the root's duration within 1 %.
func (r *run) checkSpanTrees() {
	spans := r.tr.spans
	roots, worst := 0, 0.0
	for root, sum := range rootSelfSums(spans, selfTimes(spans)) {
		if d := spans[root].End - spans[root].Start; d > 0 {
			roots++
			worst = math.Max(worst, math.Abs(float64(sum)/float64(d)-1))
		}
	}
	r.check(roots > 0 && worst <= 0.01, "span self times deviate %.4f from their root over %d roots", worst, roots)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all, each in its own subprocess, untraced then traced)")
		seed     = flag.Int64("seed", 1, "the only source of variation: simulator seed, echo burst lengths, payload pattern")
		seconds  = flag.Float64("seconds", 24, "how long one run measures")
		trace    = flag.Int("trace", 0, "1: record spans and print the per-layer metrics instead of the end-to-end ones")
		outDir   = flag.String("out", "bench/out", "directory for trace-<workload>.jsonl and result.json")
		compare  = flag.String("compare", "", "A,B: compare two result.json files against BENCHMARK.json's bounds")
	)
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *compare != "" {
		os.Exit(compareMain(*compare))
	}
	if *workload == "" {
		os.Exit(allMain(*seed, *seconds, *outDir))
	}
	for _, w := range workloads {
		if w.name != *workload {
			continue
		}
		fmt.Println(stamp())
		res, err := runWorkload(w, *seed, *seconds, *trace == 1, fullScale, *outDir, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}
	fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
	os.Exit(2)
}
