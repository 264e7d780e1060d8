package experiments

import (
	"reflect"
	"testing"

	"clove/internal/cluster"
)

// TestFrozenCloveECNEquivalentToUniform is the differential property behind
// the Clove-ECN machinery: with weight adaptation frozen, the smooth-WRR
// scheduler over uniform weights must visit paths in plain round-robin
// order, so an entire frozen Clove-ECN run must be sample-for-sample
// identical to the CloveUniform reference policy. Any divergence means the
// weighted path (WRR state, feedback plumbing, ECN masking) perturbs
// steering even when the weights say it must not. Both runs execute under
// the oracle.
func TestFrozenCloveECNEquivalentToUniform(t *testing.T) {
	diffSpecs(t,
		Spec{figure: "diff-frozen", schemes: []cluster.Scheme{cluster.SchemeCloveECN},
			variants: []variant{{mutate: func(cfg *cluster.Config) { cfg.FreezeWeights = true }}}},
		Spec{figure: "diff-uniform", schemes: []cluster.Scheme{cluster.SchemeCloveUniform}})
}

// diffSpecs simulates two one-scheme specs cell by cell — every (load, seed)
// of the grid, under the oracle — and asserts the two runs' full FCT sample
// streams and summaries are identical.
func diffSpecs(t *testing.T, a, b Spec) {
	t.Helper()
	sc := tiny()
	sc.Seeds = []int64{1, 2}
	sc.Loads = []float64{0.4, 0.7}
	sc.Oracle = true
	points, _ := newPlan(sc, []Spec{a, b})
	if len(points[0]) != len(sc.Loads) || len(points[1]) != len(sc.Loads) {
		t.Fatalf("grids of %d and %d points, want %d each", len(points[0]), len(points[1]), len(sc.Loads))
	}
	for pi := range points[0] {
		for si := range sc.Seeds {
			runA, runB := points[0][pi].runs[si], points[1][pi].runs[si]
			nameA, nameB := runA.names[0], runB.names[0]
			recA, recB := runA.simulate().Recorder, runB.simulate().Recorder
			if runA.timedOut != runB.timedOut {
				t.Fatalf("timeout mismatch %s=%v %s=%v", nameA, runA.timedOut, nameB, runB.timedOut)
			}
			sA, sB := recA.Samples(), recB.Samples()
			if len(sA) == 0 {
				t.Fatalf("%s: run produced no samples", nameA)
			}
			if len(sA) != len(sB) {
				t.Fatalf("%s: %d samples vs %s: %d", nameA, len(sA), nameB, len(sB))
			}
			for i := range sA {
				if sA[i] != sB[i] {
					t.Fatalf("sample %d diverges: %s=%+v %s=%+v", i, nameA, sA[i], nameB, sB[i])
				}
			}
			if !reflect.DeepEqual(recA.Summarize(), recB.Summarize()) {
				t.Fatalf("summaries diverge:\n%s: %+v\n%s: %+v", nameA, recA.Summarize(), nameB, recB.Summarize())
			}
		}
	}
}

// TestSeedPermutationInvariance checks that aggregated rows do not depend on
// the order seed replicates are listed (or, via the runner's determinism,
// finish): mean and stderr are symmetric functions of the replicates, so
// FormatRows output must be byte-identical under seed permutation.
func TestSeedPermutationInvariance(t *testing.T) {
	spec := Spec{
		figure:  "perm",
		schemes: []cluster.Scheme{cluster.SchemeECMP, cluster.SchemeCloveECN},
	}
	fwd := tiny()
	fwd.Seeds = []int64{1, 2}
	rowsFwd := Run(fwd, []Spec{spec}, nil)[0]

	rev := tiny()
	rev.Seeds = []int64{2, 1}
	rowsRev := Run(rev, []Spec{spec}, nil)[0]

	a, b := FormatRows(rowsFwd), FormatRows(rowsRev)
	if a != b {
		t.Fatalf("seed permutation changed aggregated output:\n{1,2}:\n%s\n{2,1}:\n%s", a, b)
	}
}

// diffRun runs one scheme and its replay reference through diffSpecs.
func diffRun(t *testing.T, prod, ref cluster.Scheme) {
	t.Helper()
	diffSpecs(t,
		Spec{figure: "diff", schemes: []cluster.Scheme{prod}},
		Spec{figure: "diff", schemes: []cluster.Scheme{ref}})
}

// TestConcuryEquivalentToReference pins the stateless scheme against an
// independent replay implementation: the production Concury keeps one live
// bucket table per destination and updates it incrementally on SetPaths,
// while ConcuryRef stores the full install history and re-folds it from
// scratch on every pick. Sample-for-sample equality under the oracle means
// the incremental table transition is exactly the reference fold.
func TestConcuryEquivalentToReference(t *testing.T) {
	diffRun(t, cluster.SchemeConcury, cluster.SchemeConcuryRef)
}

// TestCharonEquivalentToReference pins the in-network scheme the same way:
// production Charon mutates per-path load samples in place on feedback and
// carries them across re-installs, while CharonRef appends every install
// and feedback event to a log and re-folds it on every pick. Equality means
// the in-place state machine matches the event-sourced reference.
func TestCharonEquivalentToReference(t *testing.T) {
	diffRun(t, cluster.SchemeCharon, cluster.SchemeCharonRef)
}
