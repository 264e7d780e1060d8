package clove

import (
	"strings"
	"testing"
	"time"
)

func TestFacadeClusterRoundTrip(t *testing.T) {
	c := NewCluster(ClusterConfig{
		Seed:   1,
		Topo:   ScaledTestbed(1.0, 4),
		Scheme: CloveECN,
	})
	res := c.RunWebSearch(WebSearchParams{Load: 0.4, TotalJobs: 100, SizeScale: 0.05})
	if res.Completed == 0 || res.TimedOut {
		t.Fatalf("facade run failed: %+v", res)
	}
	if c.Recorder.Summarize().MeanSec <= 0 {
		t.Error("no FCT stats")
	}
}

func TestFacadeSchemesList(t *testing.T) {
	s := Schemes()
	// The paper's eight, the Sec. 7 latency extension, and the two
	// contrast points (stateless Concury, in-network Charon).
	if len(s) != 11 {
		t.Fatalf("schemes = %d, want 11", len(s))
	}
	seen := map[Scheme]bool{}
	for _, sc := range s {
		seen[sc] = true
	}
	for _, want := range []Scheme{ECMP, EdgeFlowlet, CloveECN, CloveINT, Presto, MPTCP, CONGA, LetFlow, CloveLatency, Concury, Charon} {
		if !seen[want] {
			t.Errorf("missing scheme %q", want)
		}
	}
}

func TestFacadeRunFigureUnknown(t *testing.T) {
	if _, err := RunFigure("nope", QuickScale(), nil); err == nil {
		t.Error("unknown figure accepted")
	}
	for _, id := range FigureIDs() {
		if _, ok := map[string]bool{"4b": true, "4c": true, "5a": true, "5b": true,
			"5c": true, "6": true, "7": true, "8a": true, "8b": true, "9": true}[id]; !ok {
			t.Errorf("unexpected figure id %q", id)
		}
	}
}

func TestFacadeRunFigureTiny(t *testing.T) {
	sc := QuickScale()
	sc.TotalJobs = 60
	sc.SizeScale = 0.02
	sc.Seeds = []int64{1}
	sc.Loads = []float64{0.4}
	rows, err := RunFigure("4b", sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	out := FormatRows(rows)
	if !strings.Contains(out, "== fig4b ==") || !strings.Contains(out, "clove-ecn") {
		t.Errorf("format output:\n%s", out)
	}
}

func TestFacadeScales(t *testing.T) {
	q, s, p := QuickScale(), StandardScale(), PaperScale()
	if !(q.TotalJobs < s.TotalJobs && s.TotalJobs < p.TotalJobs) {
		t.Error("scales not ordered by job count")
	}
	if p.SizeScale != 1.0 || p.HostsPerLeaf != 16 {
		t.Error("paper scale is not full fidelity")
	}
}

func TestFacadeEndpointLifecycle(t *testing.T) {
	cfg := DefaultEndpointConfig()
	cfg.Paths = 2
	cfg.FlowletGap = time.Millisecond
	a, err := NewEndpoint("127.0.0.1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if len(a.Ports()) != 2 {
		t.Errorf("ports = %v", a.Ports())
	}
	w := a.WeightsSorted()
	var sum float64
	for _, pw := range w {
		sum += pw.Weight
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("initial weights not a distribution: %v", w)
	}
}

func TestPaperTestbedShape(t *testing.T) {
	topo := PaperTestbed(1.0)
	if topo.HostsPerLeaf != 16 || topo.Leaves != 2 || topo.Spines != 2 {
		t.Errorf("paper testbed misshapen: %+v", topo)
	}
	if topo.HostRateBps != 10e9 || topo.TrunkRateBps != 40e9 {
		t.Errorf("paper rates wrong: %+v", topo)
	}
	st := ScaledTestbed(1.0, 8)
	// Ratio preserved: hosts x host rate == bisection.
	if int64(st.HostsPerLeaf)*st.HostRateBps != int64(st.Spines*st.TrunksPerPair)*st.TrunkRateBps {
		t.Error("scaled testbed broke the non-oversubscription ratio")
	}
}
