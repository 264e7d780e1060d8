package experiments

import (
	"strings"
	"testing"

	"clove/internal/sim"
	"clove/internal/stats"
)

// tiny is an even smaller scale than Quick, for unit tests.
func tiny() Scale {
	return Scale{
		Name: "tiny", HostsPerLeaf: 4, SizeScale: 0.02,
		TotalJobs: 60, ConnsPerClient: 1, Seeds: []int64{1},
		Loads:          []float64{0.4},
		IncastRequests: 3, IncastBytes: 300_000,
		MaxSimTime: 120 * sim.Second,
	}
}

// runFigure runs one table figure as a one-spec plan.
func runFigure(t *testing.T, id string, sc Scale) []Row {
	t.Helper()
	return Run(sc, []Spec{figure(t, id)}, nil)[0]
}

func checkRows(t *testing.T, rows []Row, wantSchemes int, figure string) {
	t.Helper()
	if len(rows) != wantSchemes {
		t.Fatalf("%s: %d rows, want %d", figure, len(rows), wantSchemes)
	}
	for _, r := range rows {
		if r.Figure != figure {
			t.Errorf("row figure %q", r.Figure)
		}
		if r.Samples == 0 {
			t.Errorf("%s/%s: no samples", figure, r.Scheme)
		}
		if r.TimedOutRuns > 0 {
			t.Errorf("%s/%s: %d timed-out runs", figure, r.Scheme, r.TimedOutRuns)
		}
	}
}

func TestFig4b(t *testing.T) {
	rows := runFigure(t, "4b", tiny())
	checkRows(t, rows, 5, "fig4b")
	for _, r := range rows {
		if r.MeanFCTSec <= 0 {
			t.Errorf("%s: non-positive mean", r.Scheme)
		}
	}
}

func TestFig4cAsymmetric(t *testing.T) {
	rows := runFigure(t, "4c", tiny())
	checkRows(t, rows, 5, "fig4c")
}

func TestFig5Breakdowns(t *testing.T) {
	sc := tiny()
	rows := runFigure(t, "5a", sc)
	checkRows(t, rows, 5, "fig5a")
	for _, r := range rows {
		if r.MiceFCTSec <= 0 {
			t.Errorf("fig5a %s: no mice FCT", r.Scheme)
		}
	}
	rows = runFigure(t, "5c", sc)
	checkRows(t, rows, 5, "fig5c")
	for _, r := range rows {
		if r.P99FCTSec < r.MeanFCTSec {
			t.Errorf("fig5c %s: p99 %v < mean %v", r.Scheme, r.P99FCTSec, r.MeanFCTSec)
		}
	}
}

func TestFig6Variants(t *testing.T) {
	rows := runFigure(t, "6", tiny())
	if len(rows) != 4 {
		t.Fatalf("fig6 rows = %d, want 4 variants x 1 load", len(rows))
	}
	labels := map[string]bool{}
	for _, r := range rows {
		labels[r.Variant] = true
	}
	if len(labels) != 4 {
		t.Errorf("variants = %v", labels)
	}
}

func TestFig7Incast(t *testing.T) {
	rows := runFigure(t, "7", tiny())
	// Fanouts capped at HostsPerLeaf=4: {1,3} x 3 schemes.
	if len(rows) != 6 {
		t.Fatalf("fig7 rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.GoodputBps <= 0 {
			t.Errorf("fig7 %s fanout %d: no goodput", r.Scheme, r.Fanout)
		}
	}
}

func TestFig8Simulation(t *testing.T) {
	rows := runFigure(t, "8a", tiny())
	checkRows(t, rows, 7, "fig8a")
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Scheme] = true
	}
	if !seen["clove-int"] || !seen["conga"] {
		t.Error("fig8a missing hardware-comparison schemes")
	}
	if !seen["concury"] || !seen["charon"] {
		t.Error("fig8a missing the stateless/in-network contrast schemes")
	}
	rows = runFigure(t, "8b", tiny())
	checkRows(t, rows, 7, "fig8b")
}

func TestFig9CDF(t *testing.T) {
	rows := runFigure(t, "9", tiny())
	if len(rows) != 3 {
		t.Fatalf("fig9 rows = %d", len(rows))
	}
	for _, r := range rows {
		if len(r.CDF) == 0 {
			t.Errorf("fig9 %s: empty CDF", r.Scheme)
		}
		last := r.CDF[len(r.CDF)-1]
		if last.P != 1 {
			t.Errorf("fig9 %s: CDF ends at %v", r.Scheme, last.P)
		}
	}
}

func TestSummaryRatios(t *testing.T) {
	sc := tiny()
	sc.TotalJobs = 1000
	sc.SizeScale = 0.1
	sc.Seeds = []int64{1, 2}
	h := Headline(Run(sc, []Spec{SummarySpec(0.7)}, nil)[0])
	if h.CloveVsECMP <= 0 || h.EdgeFlowletVsECMP <= 0 {
		t.Fatalf("bad ratios: %+v", h)
	}
	// Direction checks at modest scale: Clove-ECN should improve on ECMP
	// under asymmetry.
	if h.CloveVsECMP < 1 {
		t.Errorf("Clove-ECN slower than ECMP under asymmetry: %v", h.CloveVsECMP)
	}
	if h.String() == "" {
		t.Error("empty summary string")
	}
}

func TestFormatRows(t *testing.T) {
	out := FormatRows([]Row{
		{Figure: "fig4b", Scheme: "ecmp", Load: 0.5, MeanFCTSec: 1.5, Samples: 10},
		{Figure: "fig7", Scheme: "mptcp", Fanout: 8, GoodputBps: 5e9, Samples: 3},
		{Figure: "fig9", Scheme: "conga", Samples: 5,
			CDF: []stats.CDFPoint{{Seconds: 0.1, P: 1}}},
	})
	if !strings.Contains(out, "== fig4b ==") || !strings.Contains(out, "fanout=8") {
		t.Errorf("format output:\n%s", out)
	}
	if !strings.Contains(out, "100%@") {
		t.Errorf("CDF row missing:\n%s", out)
	}
}
