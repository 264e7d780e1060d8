package experiments

import (
	"io"

	"clove/internal/cluster"
	"clove/internal/scenario"
)

// ScenarioOpts configures one scenario run, mirroring the Scale knobs the
// figure sweeps use: the same worker pool, oracle, and telemetry wiring, so
// scenario output is byte-identical at any parallelism.
type ScenarioOpts struct {
	// Quick shrinks the spec to CI scale (scenario.Spec.Quick) first.
	Quick bool
	// Parallelism bounds the worker pool (0 = GOMAXPROCS, 1 = serial).
	Parallelism int
	// Oracle installs the correctness oracle on every run; a violation
	// panics with the verdict.
	Oracle bool
	// Telemetry, when non-nil, exports each run's trace under its Dir.
	Telemetry *TraceSpec
}

// RunScenario executes every (scheme, seed) run of the spec — identical
// scripted timeline in each — and aggregates one Row per scheme. Row order
// follows the spec's scheme list whatever the parallelism. A scenario is one
// more Spec for Run: a one-load sweep whose runs are the scripted RunMix.
func RunScenario(sp *scenario.Spec, opts ScenarioOpts, progress io.Writer) []Row {
	if opts.Quick {
		sp = sp.Quick()
	}
	schemes := make([]cluster.Scheme, len(sp.Schemes))
	for i, name := range sp.Schemes {
		schemes[i] = cluster.Scheme(name)
	}
	sc := Scale{Seeds: sp.Seeds, Parallelism: opts.Parallelism, Oracle: opts.Oracle, Telemetry: opts.Telemetry}
	spec := Spec{
		figure: "scenario/" + sp.Name, prefix: "scn-" + sp.Name,
		schemes: schemes, loads: []float64{sp.Workload.Load},
		scn: sp,
	}
	return Run(sc, []Spec{spec}, progress)[0]
}
