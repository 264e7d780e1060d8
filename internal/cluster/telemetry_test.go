package cluster

import (
	"testing"

	"clove/internal/sim"
	"clove/internal/telemetry"
)

// TestTelemetryDoesNotPerturb pins the zero-interference contract: enabling
// the tracer must not change simulation outcomes. Sampling draws no
// randomness and injects no packets, so two runs from the same seed — one
// with telemetry off, one on — must produce identical FCT sample streams.
func TestTelemetryDoesNotPerturb(t *testing.T) {
	run := func(tcfg *telemetry.Config) ([]int64, []sim.Time) {
		c := New(Config{Seed: 21, Topo: smallTopo(), Scheme: SchemeCloveECN, Telemetry: tcfg})
		res := c.RunWebSearch(smallWS(0.5))
		if res.Completed == 0 || res.TimedOut {
			t.Fatalf("run failed: %+v", res)
		}
		sizes := make([]int64, 0, res.Completed)
		fcts := make([]sim.Time, 0, res.Completed)
		for _, s := range c.Recorder.Samples() {
			sizes = append(sizes, s.Size)
			fcts = append(fcts, s.FCT)
		}
		return sizes, fcts
	}
	szOff, fctOff := run(nil)
	szOn, fctOn := run(&telemetry.Config{})
	if len(szOff) != len(szOn) {
		t.Fatalf("completed %d jobs without telemetry, %d with", len(szOff), len(szOn))
	}
	for i := range szOff {
		if szOff[i] != szOn[i] || fctOff[i] != fctOn[i] {
			t.Fatalf("sample %d diverged: off=(%d,%v) on=(%d,%v)",
				i, szOff[i], fctOff[i], szOn[i], fctOn[i])
		}
	}
}

// TestTelemetryEmitsAllStreams runs a traced clove-ecn workload and checks
// every stream the tracer is wired for actually captured data: link queues,
// path weights, sender cwnd, flowlet splits, and per-job FCTs.
func TestTelemetryEmitsAllStreams(t *testing.T) {
	c := New(Config{
		Seed: 22, Topo: smallTopo(), Scheme: SchemeCloveECN,
		Telemetry: &telemetry.Config{Interval: sim.Millisecond},
	})
	res := c.RunWebSearch(smallWS(0.5))
	if res.Completed == 0 || res.TimedOut {
		t.Fatalf("run failed: %+v", res)
	}
	tr := c.trace
	if tr == nil {
		t.Fatal("cluster did not build a tracer")
	}
	if n := len(tr.Queues()); n == 0 {
		t.Error("no queue samples")
	}
	if n := len(tr.Weights()); n == 0 {
		t.Error("no weight samples")
	}
	if n := len(tr.Cwnds()); n == 0 {
		t.Error("no cwnd samples")
	}
	if n := len(tr.Flowlets()); n == 0 {
		t.Error("no flowlet samples")
	}
	if got := len(tr.FCTs()); got != res.Completed {
		t.Errorf("FCT stream has %d records, completed %d jobs", got, res.Completed)
	}

	// Weight samples must come from real clove tables: positive weights
	// that respect the floor, and ages either -1 (never congested) or >= 0.
	for _, w := range tr.Weights() {
		if w.Weight <= 0 || w.Weight > 1 {
			t.Fatalf("weight sample out of range: %+v", w)
		}
		if w.CongestedAge < -1 {
			t.Fatalf("bad congested age: %+v", w)
		}
	}
	// Export must succeed end-to-end from a live run.
	if err := tr.Export(t.TempDir()); err != nil {
		t.Fatalf("export: %v", err)
	}
}
