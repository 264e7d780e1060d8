package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// report is result.json: what one complete pass over every workload found.
type report struct {
	Stamp     string                    `json:"stamp"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Workloads map[string]workloadReport `json:"workloads"`
}

type workloadReport struct {
	EndToEnd result `json:"end_to_end"`
	PerLayer result `json:"per_layer"`
}

// allMain runs every workload in a subprocess of its own (this binary
// re-executed with GOMAXPROCS = nproc), untraced for the end-to-end metrics
// and then traced for the per-layer ones, prints every metric by name with
// its unit and writes result.json.
func allMain(seed int64, seconds float64, outDir string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rep := report{Stamp: stamp(), Seed: seed, Seconds: seconds, Workloads: map[string]workloadReport{}}
	fmt.Println(rep.Stamp)
	status := 0
	child := func(w string, trace int) result {
		cmd := exec.Command(exe, "--workload", w, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds),
			"--trace", fmt.Sprint(trace), "--out", outDir)
		cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU()))
		cmd.Stderr = os.Stderr
		var out bytes.Buffer
		cmd.Stdout = io.MultiWriter(&out, os.Stdout)
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s --trace %d: %v\n", w, trace, err)
			status = 1
		}
		var res result
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s --trace %d printed no result: %v\n", w, trace, err)
			status = 1
		}
		return res
	}
	for _, w := range workloads {
		rep.Workloads[w.name] = workloadReport{EndToEnd: child(w.name, 0), PerLayer: child(w.name, 1)}
	}

	fmt.Printf("\n%-20s %-36s %18s %s\n", "workload", "metric", "value", "unit")
	for _, w := range workloads {
		wr := rep.Workloads[w.name]
		for _, set := range []struct {
			defs []metricDef
			res  result
		}{{endToEnd, wr.EndToEnd}, {perLayer, wr.PerLayer}} {
			for _, d := range set.defs {
				fmt.Printf("%-20s %-36s %18.6f %s\n", w.name, d.name, set.res.Metrics[d.name].Value, d.unit)
			}
			fmt.Printf("%-20s %-36s %18d of %d\n", w.name, "failed", set.res.Failed, set.res.Attempted)
		}
	}

	data, err := json.MarshalIndent(rep, "", " ")
	if err == nil {
		if err = os.MkdirAll(outDir, 0o755); err == nil {
			err = os.WriteFile(filepath.Join(outDir, "result.json"), append(data, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return status
}

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two result.json files of the same tree and seed: it
// prints each end-to-end metric's difference beside its bound, and fails if
// the second run is worse than the first by more than the bound or if a
// count that must repeat exactly differs at all.
func compareMain(arg string) int {
	paths := strings.Split(arg, ",")
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "bench: --compare wants A,B")
		return 2
	}
	var reps [2]report
	for i, p := range paths {
		if err := readJSON(p, &reps[i]); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	var bf benchmarkFile
	if err := readJSON("BENCHMARK.json", &bf); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	bad := 0
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "%-20s %-26s %16s %16s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, w := range workloads {
		a, b := reps[0].Workloads[w.name], reps[1].Workloads[w.name]
		for _, m := range bf.EndToEnd {
			x, y := a.EndToEnd.Metrics[m.Name].Value, b.EndToEnd.Metrics[m.Name].Value
			worse := (y - x) / x
			if m.Better == "higher" {
				worse = (x - y) / x
			}
			verdict := ""
			if !(worse <= m.Bound) { // also catches NaN from a missing metric
				verdict = "  BEYOND BOUND"
				bad++
			}
			fmt.Fprintf(out, "%-20s %-26s %16.6f %16.6f %+8.2f%% %6.1f%%%s\n", w.name, m.Name, x, y, 100*worse, 100*m.Bound, verdict)
		}
		for _, name := range exactRepeat {
			x, y := a.PerLayer.Metrics[name].Value, b.PerLayer.Metrics[name].Value
			verdict := "identical"
			if x != y || math.IsNaN(x) {
				verdict = "  DIFFERS"
				bad++
			}
			fmt.Fprintf(out, "%-20s %-26s %16.6f %16.6f %s\n", w.name, name, x, y, verdict)
		}
		if !a.EndToEnd.Correct || !b.EndToEnd.Correct || !a.PerLayer.Correct || !b.PerLayer.Correct {
			fmt.Fprintf(out, "%-20s a run failed its output checks\n", w.name)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(out, "%d comparisons failed\n", bad)
		return 1
	}
	fmt.Fprintln(out, "the two runs agree within the benchmark's own bounds")
	return 0
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
