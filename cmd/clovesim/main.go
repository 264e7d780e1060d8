// Command clovesim regenerates the paper's evaluation figures on the
// packet-level simulator.
//
// Usage:
//
//	clovesim -fig 4b                 # one figure at the standard scale
//	clovesim -fig all -scale quick   # everything, CI-sized
//	clovesim -fig summary            # the paper's headline ratios
//	clovesim -fig 8b -scale paper -v # full fidelity with progress
//	clovesim -fig 4c -j 8            # 8 parallel workers, same output as -j 1
//	clovesim -list-scenarios         # embedded scenario library
//	clovesim -scenario storm-rolling-spine -scale quick -oracle
//	clovesim -scenario ./my-spec.json
//
// A scenario spec fixes its own topology, workload and seeds, so -scenario
// rejects -hosts, -jobs, -size-scale, -seeds and -load. Every run, whatever
// its leaf count, is one Simulator on one goroutine; -j is the only
// parallelism.
//
// The requested figures are expanded into one plan of (scheme, load, seed)
// runs; a run that several figures share (5a–c are breakdowns of 4c, 9 and
// the summary read 8b, 8a/8b repeat part of 4b/4c) is simulated once, so
// -fig all performs under half the simulations its figures list. Distinct
// runs execute on a worker pool sized by -j (default GOMAXPROCS) and results
// are collected in deterministic grid order, so the printed tables are
// byte-identical at any -j for the same seeds — and to running each figure
// on its own.
//
// Figures: 4b 4c 5a 5b 5c 6 7 8a 8b 9 (see DESIGN.md for the experiment
// index), plus "summary" and "all".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"

	"clove"
)

func main() {
	var (
		fig       = flag.String("fig", "all", "figure to regenerate (4b..9, summary, all)")
		scen      = flag.String("scenario", "", "run a declarative scenario instead of a figure: an embedded name (see -list-scenarios) or a spec-file path; the spec fixes hosts, jobs, sizes, seeds and load")
		listScen  = flag.Bool("list-scenarios", false, "list the embedded scenario library and exit")
		scale     = flag.String("scale", "standard", "run scale: quick | standard | paper")
		load      = flag.Float64("load", 0.7, "network load for -fig summary")
		verbose   = flag.Bool("v", false, "stream per-run progress")
		workers   = flag.Int("j", 0, "parallel simulation workers, one run each (0 = GOMAXPROCS, 1 = serial); output is identical for any -j")
		useOracle = flag.Bool("oracle", false, "run every simulation under the correctness oracle (see EXPERIMENTS.md \"Correctness\"); panics on any invariant violation")

		// Telemetry (see EXPERIMENTS.md "Telemetry & tracing").
		traceDir      = flag.String("trace", "", "export per-run telemetry traces (JSONL+CSV) under this directory")
		traceInterval = flag.Duration("trace-interval", 0, "telemetry sampling interval (default 100µs sim time)")
		traceSamples  = flag.Int("trace-samples", 0, "per-stream ring-buffer bound (default 16384)")

		// Optional overrides on top of the chosen scale.
		hosts     = flag.Int("hosts", 0, "override hosts per leaf")
		jobs      = flag.Int("jobs", 0, "override total jobs per run")
		sizeScale = flag.Float64("size-scale", 0, "override flow-size multiplier")
		seeds     = flag.Int("seeds", 0, "override number of seeds (1..n)")

		// Profiling (see EXPERIMENTS.md "Performance").
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write an allocation heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "clovesim: -cpuprofile:", err)
			os.Exit(2)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "clovesim: -cpuprofile:", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "clovesim: -memprofile:", err)
			os.Exit(2)
		}
		defer f.Close()
		runtime.GC() // settle live objects so the profile shows retained allocs
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "clovesim: -memprofile:", err)
			os.Exit(2)
		}
	}()

	var sc clove.Scale
	switch *scale {
	case "quick":
		sc = clove.QuickScale()
	case "standard":
		sc = clove.StandardScale()
	case "paper":
		sc = clove.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "clovesim: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *hosts > 0 {
		sc.HostsPerLeaf = *hosts
	}
	if *jobs > 0 {
		sc.TotalJobs = *jobs
	}
	if *sizeScale > 0 {
		sc.SizeScale = *sizeScale
	}
	if *seeds > 0 {
		sc.Seeds = sc.Seeds[:0]
		for i := 1; i <= *seeds; i++ {
			sc.Seeds = append(sc.Seeds, int64(i))
		}
	}
	sc.Parallelism = *workers
	sc.Oracle = *useOracle
	if *traceDir != "" {
		sc.Telemetry = &clove.TraceSpec{
			Dir:        *traceDir,
			Interval:   clove.FromDuration(*traceInterval),
			MaxSamples: *traceSamples,
		}
	}

	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}

	if *listScen {
		for _, name := range clove.ScenarioNames() {
			sp, err := clove.LoadScenario(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "clovesim:", err)
				os.Exit(2)
			}
			fmt.Printf("%-24s %s\n", name, sp.Description)
		}
		return
	}
	if *scen != "" {
		ignored := false
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "hosts", "jobs", "size-scale", "seeds", "load":
				fmt.Fprintf(os.Stderr, "clovesim: -%s does not apply to -scenario (the spec fixes it)\n", f.Name)
				ignored = true
			}
		})
		if ignored {
			os.Exit(2)
		}
		sp, err := clove.LoadScenario(*scen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "clovesim:", err)
			os.Exit(2)
		}
		rows := clove.RunScenario(sp, clove.ScenarioOpts{
			Quick:       *scale == "quick",
			Parallelism: *workers,
			Oracle:      *useOracle,
			Telemetry:   sc.Telemetry,
		}, progress)
		fmt.Print(clove.FormatRows(rows))
		return
	}

	ids := []string{*fig}
	if *fig == "all" {
		ids = append(clove.FigureIDs(), "summary")
	}
	if !slices.Contains(ids, "summary") {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "load" {
				fmt.Fprintln(os.Stderr, "clovesim: -load applies to -fig summary (and all) only")
				os.Exit(2)
			}
		})
	}
	figs, err := clove.RunFigures(ids, sc, *load, progress)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clovesim:", err)
		os.Exit(2)
	}
	for i, id := range ids {
		if id == "summary" {
			fmt.Println(clove.Headline(figs[i]))
		} else {
			fmt.Print(clove.FormatRows(figs[i]))
		}
	}
}
