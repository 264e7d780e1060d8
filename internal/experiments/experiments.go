// Package experiments regenerates every table and figure in the paper's
// evaluation (Secs. 5 and 6): the testbed load sweeps on symmetric and
// asymmetric topologies (Figs. 4b, 4c), the FCT breakdowns (Figs. 5a–5c),
// the Clove-ECN parameter sensitivity study (Fig. 6), the incast workload
// (Fig. 7), the simulation comparison against Clove-INT and CONGA
// (Figs. 8a, 8b), the mice-FCT CDF (Fig. 9), and the headline summary
// ratios. Each experiment runs at a configurable Scale so the same code
// drives quick benchmarks and paper-scale runs. A figure is an entry of the
// Spec table (figures.go); Run performs a list of specs as one plan (plan.go).
package experiments

import (
	"fmt"
	"sort"

	"clove/internal/sim"
	"clove/internal/stats"
)

// Scale trades fidelity for runtime. Link rates are always the paper's
// (10G/40G): simulation cost depends on packet count, so the knobs are
// host count, flow-size scale, and job count.
type Scale struct {
	Name           string
	HostsPerLeaf   int       // paper: 16
	SizeScale      float64   // flow-size multiplier (paper: 1.0)
	TotalJobs      int       // jobs per run (testbed: 50K/conn; sim: 20K)
	ConnsPerClient int       // paper testbed: 1; NS2: 3
	Seeds          []int64   // paper: 3 random seeds, averaged
	Loads          []float64 // load sweep points
	IncastRequests int
	IncastBytes    int64
	MaxSimTime     sim.Time

	// Parallelism bounds the worker pool running independent (scheme,
	// load, seed) jobs: 0 means GOMAXPROCS, 1 forces a serial run. Any
	// value produces byte-identical FormatRows output for the same seeds
	// (see runner.go); it only changes wall-clock time.
	Parallelism int

	// Oracle installs the correctness oracle (internal/oracle) on every
	// run; any detected invariant violation panics with the verdict.
	// Observation never changes results — output stays byte-identical.
	Oracle bool

	// Telemetry, when non-nil, traces every run and exports each run's
	// streams under Telemetry.Dir. Tracing reads simulation state but never
	// perturbs it, and every trace directory is written by exactly one job,
	// so trace bytes — like FormatRows output — are identical for the same
	// seeds at any Parallelism.
	Telemetry *TraceSpec
}

// TraceSpec asks every run of an experiment for a telemetry trace
// (internal/telemetry). Each run exports into its own subdirectory of Dir
// named <figure>_<scheme>[_<variant>]_load<NNN>_seed<N> (incast runs use
// fanout<NN> instead of load<NNN>); a run that several figures of one plan
// share is exported under each figure's name.
type TraceSpec struct {
	// Dir is the root output directory (created if missing).
	Dir string
	// Interval is the sampling interval for the polled streams
	// (0 = telemetry.DefaultInterval).
	Interval sim.Time
	// MaxSamples bounds each stream's ring buffer
	// (0 = telemetry.DefaultMaxSamples).
	MaxSamples int
}

// runName names one requested run — in progress lines, oracle verdicts and
// as its trace subdirectory — from its figure's prefix, its row and its
// seed. The variant label (Fig. 6) is folded to lowercase alphanumerics and
// dashes so the name is filesystem-safe.
func runName(prefix string, row Row, seed int64) string {
	name := prefix + "_" + row.Scheme
	if v := sanitizeLabel(row.Variant); v != "" {
		name += "_" + v
	}
	if row.Fanout > 0 {
		return fmt.Sprintf("%s_fanout%02d_seed%d", name, row.Fanout, seed)
	}
	return fmt.Sprintf("%s_load%03d_seed%d", name, int(row.Load*100+0.5), seed)
}

func sanitizeLabel(s string) string {
	out := make([]byte, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			out = append(out, byte(r))
		case r >= 'A' && r <= 'Z':
			out = append(out, byte(r-'A'+'a'))
		}
	}
	return string(out)
}

// Quick is sized for CI and `go test -bench`: one seed, few load points,
// small flows. Shapes (scheme ordering, crossover direction) already hold.
func Quick() Scale {
	return Scale{
		Name: "quick", HostsPerLeaf: 4, SizeScale: 0.1,
		TotalJobs: 1000, ConnsPerClient: 1, Seeds: []int64{1, 2},
		Loads:          []float64{0.3, 0.5, 0.7},
		IncastRequests: 8, IncastBytes: 1_000_000,
		MaxSimTime: 300 * sim.Second,
	}
}

// Standard is the CLI default: full load sweeps, three seeds, eight hosts
// per leaf. Minutes of wall time on one core.
func Standard() Scale {
	return Scale{
		Name: "standard", HostsPerLeaf: 8, SizeScale: 0.1,
		TotalJobs: 2000, ConnsPerClient: 1, Seeds: []int64{1, 2, 3},
		Loads:          []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8},
		IncastRequests: 30, IncastBytes: 4_000_000,
		MaxSimTime: 600 * sim.Second,
	}
}

// Paper is the full-fidelity configuration (hours of wall time).
func Paper() Scale {
	return Scale{
		Name: "paper", HostsPerLeaf: 16, SizeScale: 1.0,
		TotalJobs: 20000, ConnsPerClient: 3, Seeds: []int64{1, 2, 3},
		Loads:          []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
		IncastRequests: 200, IncastBytes: 10_000_000,
		MaxSimTime: 3600 * sim.Second,
	}
}

// Row is one data point of a regenerated figure.
type Row struct {
	Figure  string
	Scheme  string
	Load    float64 // offered load fraction (load sweeps)
	Fanout  int     // incast only
	Variant string  // parameter-sensitivity label (Fig. 6)

	MeanFCTSec   float64
	P99FCTSec    float64
	MiceFCTSec   float64
	ElephFCTSec  float64
	GoodputBps   float64
	CDF          []stats.CDFPoint // Fig. 9 only
	Samples      int
	TimedOutRuns int

	// Cross-seed replication statistics: each metric above is the mean
	// over Replicates seed runs; the stderr fields carry the standard
	// error of that mean (0 with a single seed), so every grid point
	// reports mean ± stderr rather than a bare average.
	Replicates       int
	MeanFCTStderrSec float64
	P99FCTStderrSec  float64
	GoodputStderrBps float64
}

// FormatRows renders rows as an aligned text table, grouped by figure.
func FormatRows(rows []Row) string {
	sorted := append([]Row(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Figure < sorted[j].Figure })
	out := ""
	lastFig := ""
	for _, r := range sorted {
		if r.Figure != lastFig {
			out += fmt.Sprintf("== %s ==\n", r.Figure)
			lastFig = r.Figure
		}
		switch {
		case r.Fanout > 0:
			out += fmt.Sprintf("  %-28s fanout=%-2d goodput=%8.3f%s Gbps  (n=%d)\n",
				r.Scheme, r.Fanout, r.GoodputBps/1e9, stderrSuffixf("±%.3f", r.Replicates, r.GoodputStderrBps/1e9), r.Samples)
		case len(r.CDF) > 0:
			out += fmt.Sprintf("  %-28s mice CDF (n=%d):", r.Scheme, r.Samples)
			for _, pt := range r.CDF {
				out += fmt.Sprintf(" %.0f%%@%.4fs", pt.P*100, pt.Seconds)
			}
			out += "\n"
		default:
			label := r.Scheme
			if r.Variant != "" {
				label = r.Variant
			}
			out += fmt.Sprintf("  %-28s load=%2.0f%% mean=%8.4fs%s p99=%8.4fs%s mice=%8.4fs eleph=%8.4fs (n=%d)\n",
				label, r.Load*100,
				r.MeanFCTSec, stderrSuffix(r.Replicates, r.MeanFCTStderrSec),
				r.P99FCTSec, stderrSuffix(r.Replicates, r.P99FCTStderrSec),
				r.MiceFCTSec, r.ElephFCTSec, r.Samples)
		}
	}
	return out
}

// stderrSuffix renders "±x.xxxx" for multi-seed rows and nothing for
// single-replicate rows (where a standard error is undefined), keeping
// single-seed output byte-compatible with the pre-replication format.
func stderrSuffix(replicates int, stderr float64) string {
	return stderrSuffixf("±%.4f", replicates, stderr)
}

func stderrSuffixf(format string, replicates int, stderr float64) string {
	if replicates < 2 {
		return ""
	}
	return fmt.Sprintf(format, stderr)
}
