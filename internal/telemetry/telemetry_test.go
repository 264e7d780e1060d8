package telemetry

import (
	"testing"

	"clove/internal/packet"
	"clove/internal/sim"
)

func TestNilHandlesAndNilTracerAreNoOps(t *testing.T) {
	var tr *Tracer
	tr.AddMetric("x", func() int64 { t.Error("nil tracer evaluated a metric reader"); return 0 })
	flow := packet.FiveTuple{Src: 1, Dst: 2, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	tr.AddSampler(func(sim.Time) {})
	tr.Start()
	tr.Stop()
	tr.QueueSample(0, 1, "l", 0, 0, 0)
	tr.WeightSample(0, 1, 2, 3, 0.5, 0.1, -1)
	tr.CwndSample(0, flow, 10, 20, 1000, 0)
	tr.Retransmit(0, flow, 0, RetxFast)
	tr.Flowlet(0, flow, 0, 1, 2, 3, 4)
	tr.FCT(0, 1, 2, 100, 50)
	if err := tr.Export(t.TempDir()); err != nil {
		t.Errorf("nil tracer Export: %v", err)
	}
	if tr.Weights() != nil || tr.FCTs() != nil {
		t.Error("nil tracer returned samples")
	}
}

// TestDisabledTelemetryZeroAllocs pins the disabled-path cost contract of
// the package doc: with telemetry compiled in but not enabled, the nil
// tracer hooks used on hot paths must not allocate.
func TestDisabledTelemetryZeroAllocs(t *testing.T) {
	var tr *Tracer
	flow := packet.FiveTuple{Src: 1, Dst: 2, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	if allocs := testing.AllocsPerRun(100, func() {
		tr.Retransmit(0, flow, 0, RetxTimeout)
		tr.Flowlet(0, flow, 0, 1, 2, 3, 4)
	}); allocs != 0 {
		t.Fatalf("disabled telemetry hooks: %v allocs/op, want 0", allocs)
	}
}

func TestRingWrapsAndCountsDrops(t *testing.T) {
	s := sim.New(1)
	tr := NewTracer(s, Config{Interval: sim.Microsecond, MaxSamples: 4})
	for i := 0; i < 7; i++ {
		tr.FCT(sim.Time(i), 1, 2, int64(i), sim.Time(i))
	}
	got := tr.FCTs()
	if len(got) != 4 {
		t.Fatalf("ring kept %d records, want 4", len(got))
	}
	for i, rec := range got {
		if want := sim.Time(3 + i); rec.T != want {
			t.Errorf("record %d at t=%d, want %d (oldest-first after wrap)", i, rec.T, want)
		}
	}
	if tr.fcts.dropped != 3 {
		t.Errorf("dropped = %d, want 3", tr.fcts.dropped)
	}
}

func TestTickerSamplesAtInterval(t *testing.T) {
	s := sim.New(1)
	tr := NewTracer(s, Config{Interval: 10 * sim.Microsecond})
	var ticks []sim.Time
	tr.AddSampler(func(now sim.Time) { ticks = append(ticks, now) })
	tr.Start()
	tr.Start() // idempotent
	s.RunUntil(95 * sim.Microsecond)
	if len(ticks) != 9 {
		t.Fatalf("sampler ran %d times in 95µs at 10µs interval, want 9", len(ticks))
	}
	for i, tk := range ticks {
		if want := sim.Time(i+1) * 10 * sim.Microsecond; tk != want {
			t.Errorf("tick %d at %v, want %v", i, tk, want)
		}
	}
	if len(tr.sims.snapshot()) != 9 {
		t.Errorf("sim stream captured %d samples, want 9", len(tr.sims.snapshot()))
	}
	tr.Stop()
	s.RunUntil(200 * sim.Microsecond)
	if len(ticks) != 9 {
		t.Errorf("sampler ran after Stop: %d ticks", len(ticks))
	}
}
