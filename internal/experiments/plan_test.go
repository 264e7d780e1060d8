package experiments

import (
	"reflect"
	"testing"
)

// allSpecs is what `clovesim -fig all` plans: the ten figures and the summary.
func allSpecs(t *testing.T) []Spec {
	t.Helper()
	var specs []Spec
	for _, id := range ExperimentIDs() {
		specs = append(specs, figure(t, id))
	}
	return append(specs, SummarySpec(0.7))
}

// TestPlanSharesIdenticalRuns pins how much of the full evaluation is
// repeats — the plan executes each distinct (config, workload) once — and
// that sharing changes no row: every figure of the shared plan equals the
// same figure planned alone.
func TestPlanSharesIdenticalRuns(t *testing.T) {
	for _, tc := range []struct {
		sc                          Scale
		requested, executed, incast int
	}{
		{Quick(), 290, 138, 12},
		{Standard(), 948, 465, 36},
	} {
		points, runs := newPlan(tc.sc, allSpecs(t))
		requested, incastRuns := 0, 0
		for _, pts := range points {
			for _, pt := range pts {
				requested += len(pt.runs)
			}
		}
		for _, r := range runs {
			if r.key.incast.Fanout > 0 {
				incastRuns++
			}
		}
		if requested != tc.requested || len(runs) != tc.executed || incastRuns != tc.incast {
			t.Errorf("%s: %d requested -> %d executed (%d incast), want %d -> %d (%d incast)", tc.sc.Name,
				requested, len(runs), incastRuns, tc.requested, tc.executed, tc.incast)
		}
	}

	specs := allSpecs(t)
	shared := Run(tiny(), specs, nil)
	for i, spec := range specs {
		alone := Run(tiny(), []Spec{spec}, nil)[0]
		if len(alone) == 0 || !reflect.DeepEqual(shared[i], alone) {
			t.Errorf("%s: rows of the shared plan differ from the one-figure plan:\n%s--- alone ---\n%s",
				spec.figure, FormatRows(shared[i]), FormatRows(alone))
		}
	}
}
