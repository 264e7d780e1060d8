package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	var c contract
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesCode holds BENCHMARK.json and the names the program
// prints in step, and the names and units inside the driver's limits.
func TestContractMatchesCode(t *testing.T) {
	c := readContract(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not well-formed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	sets := []struct {
		kind   string
		json   []contractMetric
		code   []metricDef
		bounds bool
	}{{"end_to_end", c.EndToEnd, endToEnd, true}, {"per_layer", c.PerLayer, perLayer, false}}
	for _, s := range sets {
		if len(s.json) != len(s.code) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", s.kind, len(s.json), len(s.code))
		}
		for i, m := range s.json {
			name(m.Name)
			if m.Name != s.code[i].name || m.Unit != s.code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", s.kind, i, m.Name, m.Unit, s.code[i].name, s.code[i].unit)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is not well-formed", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			if s.bounds != (m.Bound != nil) || (m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s: bound %v", m.Name, m.Bound)
			}
		}
	}
	if len(c.EndToEnd) > 16 || len(c.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the driver's limits", len(c.EndToEnd), len(c.PerLayer))
	}
	if c.EndToEnd[0].Name != "setup_s" || c.EndToEnd[0].Unit != "s" || c.EndToEnd[0].Better != "lower" {
		t.Errorf("first end-to-end metric must be setup_s [s], lower")
	}
	for _, n := range exactRepeat {
		if !seen[n] {
			t.Errorf("exact-repeat metric %q is not a per-layer metric", n)
		}
	}
}

// TestSelfTimes checks the span arithmetic on a hand-built tree:
//
//	root [0,100)
//	  a [10,40)
//	    a1 [15,25)
//	  b [35,60)    overlaps a by 5
//	  c [90,120)   runs past its parent
//	other [200,230)  a second root
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "a1", Start: 15, End: 25, Parent: 1},
		{Name: "b", Start: 35, End: 60, Parent: 0},
		{Name: "c", Start: 90, End: 120, Parent: 0},
		{Name: "other", Start: 200, End: 230, Parent: -1},
	}
	self := selfTimes(spans)
	// root: 100 - ([10,40) + [40,60) + [90,100)) = 40; a: 30 - 10 = 20.
	want := []int64{40, 20, 10, 25, 30, 30}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], w)
		}
	}
	sums := rootSelfSums(spans, self)
	if sums[0] != 40+20+10+25+30 || sums[5] != 30 || len(sums) != 2 {
		t.Errorf("root sums = %v", sums)
	}
}

func TestQuantile(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 1..4 = %v", m)
	}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := quantile(xs, 0.9); q != 9 {
		t.Errorf("p90 of 1..10 = %v", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("median of nothing = %v", q)
	}
}

// TestWorkloadsSmoke runs every workload traced at a tiny scale: each must
// pass its own output checks, print every per-layer metric, and write a
// trace whose lines parse.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := runWorkload(w, 7, 0.25, true, shortScale, dir, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("traced run printed %d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			f, err := os.Open(filepath.Join(dir, "trace-"+w.name+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			lines := 0
			for sc := bufio.NewScanner(f); sc.Scan(); lines++ {
				var rec struct {
					Name string `json:"name"`
					Self *int64 `json:"self_ns"`
				}
				if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || rec.Name == "" || rec.Self == nil {
					t.Fatalf("trace line %d: %q: %v", lines, sc.Text(), err)
				}
			}
			if lines == 0 {
				t.Error("trace is empty")
			}
		})
	}
}

// TestEndToEndSmoke runs one workload of each product untraced and checks
// that every end-to-end metric comes out positive: the driver refuses zeros.
func TestEndToEndSmoke(t *testing.T) {
	for _, i := range []int{0, 3} {
		w := workloads[i]
		res, err := runWorkload(w, 7, 0.25, false, shortScale, t.TempDir(), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range endToEnd {
			if v := res.Metrics[d.name]; !(v.Value > 0) || v.Unit != d.unit {
				t.Errorf("%s: %s = %v %s", w.name, d.name, v.Value, v.Unit)
			}
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(res.Metrics), len(endToEnd))
		}
	}
}
