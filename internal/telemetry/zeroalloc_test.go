package telemetry_test

import (
	"testing"

	"clove/internal/netem"
	"clove/internal/packet"
	"clove/internal/sim"
	"clove/internal/telemetry"
)

// TestDisabledTelemetryForwardingZeroAllocs is the end-to-end hook-overhead
// guard, mirroring the oracle's TestDisabledOracleZeroAllocs: with the
// telemetry package compiled in (a tracer even exists) but nothing wired to
// it, a forwarded hop through the link layer must still run
// allocation-free — the link layer knows nothing of telemetry; its totals
// are read from LinkStats when a trace is exported.
func TestDisabledTelemetryForwardingZeroAllocs(t *testing.T) {
	s := sim.New(1)
	topo := netem.NewTopology(s)
	sw := topo.AddSwitch("S")
	cfg := netem.LinkConfig{RateBps: 40e9, Delay: 2 * sim.Microsecond}
	src := topo.AddHost("h0", sw, cfg, cfg)
	topo.AddHost("h1", sw, cfg, cfg)
	topo.ComputeRoutes()
	_ = telemetry.NewTracer(s, telemetry.Config{}) // compiled in, not wired

	send := func() {
		pkt := topo.Pool().Get()
		pkt.Kind = packet.KindData
		pkt.Inner = packet.FiveTuple{Src: 0, Dst: 1, SrcPort: 40000, DstPort: 80, Proto: packet.ProtoTCP}
		pkt.PayloadLen = 1460
		src.Send(pkt)
		s.Run()
	}
	send() // warm pools and the event free list
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("hot path with disabled telemetry: %v allocs/op, want 0", allocs)
	}
}
