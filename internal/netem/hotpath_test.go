package netem

import (
	"testing"

	"clove/internal/packet"
	"clove/internal/sim"
)

// hotPathFabric builds the smallest forwarding path that exercises every
// per-hop stage — host uplink (link), ECMP switch, host downlink (link),
// NIC delivery — with the destination host acting as a terminal sink that
// releases packets back to the topology pool (Deliver == nil). Host
// uplinks are HostQdiscCap deep, as in the topology builders.
func hotPathFabric() (*sim.Simulator, *Topology, *Host, *Host) {
	s := sim.New(1)
	t := NewTopology(s)
	sw := t.AddSwitch("S")
	down := LinkConfig{RateBps: 40e9, Delay: 2 * sim.Microsecond}
	up := down
	up.QueueCap = HostQdiscCap
	src := t.AddHost("h0", sw, up, down)
	dst := t.AddHost("h1", sw, up, down)
	t.ComputeRoutes()
	return s, t, src, dst
}

// sendOne drives one full packet hop chain: pool Get, enqueue on the source
// uplink, serialize, propagate, switch, serialize, propagate, sink Put.
func sendOne(s *sim.Simulator, t *Topology, src *Host) {
	pkt := t.Pool().Get()
	pkt.Kind = packet.KindData
	pkt.Inner = packet.FiveTuple{Src: 0, Dst: 1, SrcPort: 40000, DstPort: 80, Proto: packet.ProtoTCP}
	pkt.PayloadLen = 1460
	src.Send(pkt)
	s.Run()
}

// TestHotPathForwardingZeroAllocs asserts the tentpole acceptance criterion:
// a packet traversing link -> switch -> link costs zero allocations once the
// event free list and packet pool are warm.
func TestHotPathForwardingZeroAllocs(t *testing.T) {
	s, topo, src, dst := hotPathFabric()
	sendOne(s, topo, src) // warm pools, heap backing, queue capacity

	allocs := testing.AllocsPerRun(100, func() { sendOne(s, topo, src) })
	if allocs != 0 {
		t.Fatalf("allocs per forwarded packet-hop = %v, want 0", allocs)
	}
	if dst.RxPackets() == 0 {
		t.Fatal("sink received nothing; the path is miswired")
	}
	if gets, puts := topo.Pool().Gets(), topo.Pool().Puts(); gets != puts {
		t.Errorf("pool leak: %d gets vs %d puts", gets, puts)
	}
}

// BenchmarkHotPathLinkSwitchLink measures ns per forwarded packet (uplink
// serialization + switch + downlink + delivery) and fails on any alloc
// regression; the CI bench-smoke job runs it.
func BenchmarkHotPathLinkSwitchLink(b *testing.B) {
	s, topo, src, _ := hotPathFabric()
	sendOne(s, topo, src)
	if allocs := testing.AllocsPerRun(20, func() { sendOne(s, topo, src) }); allocs != 0 {
		b.Fatalf("allocs per forwarded packet-hop = %v, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sendOne(s, topo, src)
	}
}
