package experiments

import (
	"io"
	"runtime"
	"testing"

	"clove/internal/cluster"
)

// detScale is a grid small enough to rerun several times per test but
// wide enough (2 schemes x 2 loads x 2 seeds = 8 jobs) that a parallel
// run actually interleaves jobs.
func detScale() Scale {
	sc := tiny()
	sc.Seeds = []int64{1, 2}
	sc.Loads = []float64{0.3, 0.5}
	return sc
}

func detSpec() Spec {
	return Spec{
		figure:  "det",
		schemes: []cluster.Scheme{cluster.SchemeECMP, cluster.SchemeCloveECN},
		asym:    true,
	}
}

// figure returns a table spec by ID.
func figure(t *testing.T, id string) Spec {
	t.Helper()
	spec, err := Figure(id)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestRunDeterministicAcrossParallelism pins the end-to-end determinism
// invariant of the executor, for every kind of spec it projects and for a
// plan whose specs share runs: the same seeds must produce byte-identical
// output at -j 1, -j 1 again, -j 4, and -j GOMAXPROCS. This extends the
// DESIGN.md "identical seeds => identical packet traces" guarantee through
// the worker pool, the out-of-order job completion, the run sharing, and the
// cross-seed aggregation.
func TestRunDeterministicAcrossParallelism(t *testing.T) {
	cases := []struct {
		name  string
		specs []Spec
	}{
		{"load-sweep", []Spec{detSpec()}},
		{"incast", []Spec{figure(t, "7")}},
		{"mice-cdf", []Spec{figure(t, "9")}},
		{"summary", []Spec{SummarySpec(0.5)}},
		{"shared", []Spec{figure(t, "8b"), figure(t, "9"), SummarySpec(0.5)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(parallelism int) string {
				sc := detScale()
				sc.Parallelism = parallelism
				// io.Discard (not nil) keeps the concurrent progress path in play.
				out := ""
				for _, rows := range Run(sc, tc.specs, io.Discard) {
					out += FormatRows(rows)
					if rows[0].Figure == "summary" {
						h := Headline(rows)
						if h.CloveVsECMP <= 0 {
							t.Errorf("bad headline: %+v", h)
						}
						out += h.String()
					}
				}
				return out
			}
			want := run(1)
			if want == "" {
				t.Fatal("empty output")
			}
			for _, j := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				if got := run(j); got != want {
					t.Errorf("output at -j %d differs from -j 1:\n--- j=1 ---\n%s--- j=%d ---\n%s", j, want, j, got)
				}
			}
		})
	}
}

// TestSweepConcurrentRaceSmoke is the race-detector target: a reduced
// two-scheme sweep forced onto 4 workers so `go test -race` exercises
// concurrent cluster construction, simulation, and progress reporting.
// Any shared mutable state in sim/netem/cluster/tcp/vswitch would show up
// here as a data race.
func TestSweepConcurrentRaceSmoke(t *testing.T) {
	sc := detScale()
	sc.Parallelism = 4
	rows := Run(sc, []Spec{detSpec()}, io.Discard)[0]
	if len(rows) != 4 { // 2 schemes x 2 loads
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Samples == 0 {
			t.Errorf("%s/%s: no samples", r.Figure, r.Scheme)
		}
		if r.Replicates != 2 {
			t.Errorf("%s/%s: replicates = %d, want 2", r.Figure, r.Scheme, r.Replicates)
		}
	}
}

// TestRunJobsCoversAllIndices checks the pool itself: every index runs
// exactly once at any worker count, including degenerate ones.
func TestRunJobsCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 50
		counts := make([]int32, n)
		runJobs(workers, n, func(i int) { counts[i]++ })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
	runJobs(4, 0, func(int) { t.Fatal("fn called for n=0") })
}
