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

// TestECMPIndexMatchesModulo checks the power-of-two mask in ecmpIndex
// against h % n for every candidate count 1..64 over hashes that set every
// bit position.
func TestECMPIndexMatchesModulo(t *testing.T) {
	for n := 1; n <= 64; n++ {
		h := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < 4096; i++ {
			h = h*6364136223846793005 + 1442695040888963407
			for _, x := range []uint64{h, h >> (i & 63), ^h, uint64(i)} {
				if got, want := ecmpIndex(x, n), int(x%uint64(n)); got != want {
					t.Fatalf("ecmpIndex(%#x, %d) = %d, want %d", x, n, got, want)
				}
			}
		}
	}
}

// BenchmarkHotPathECMPPick prices one ECMP choice at a paper-testbed leaf:
// the outer tuple's fold, the avalanche finalizer and the reduction onto the
// leaf's four uplinks, for a packet whose outer source port changes every
// call. It fails on any allocation; the CI bench-smoke job runs it.
func BenchmarkHotPathECMPPick(b *testing.B) {
	ls := BuildLeafSpine(sim.New(1), PaperTestbed(0.01))
	leaf := ls.Leaves[0]
	dst := ls.Cfg.HostsPerLeaf // first host behind the other leaf
	cands := leaf.NextHops(packet.HostID(dst))
	if len(cands) != 4 {
		b.Fatalf("leaf has %d candidates toward host %d, want 4", len(cands), dst)
	}
	pkt := &packet.Packet{Kind: packet.KindData}
	e := pkt.AddEncap()
	e.SrcHyp, e.DstHyp, e.DstPort = 0, packet.HostID(dst), 7471
	var sink packet.LinkID
	pick := func(port uint16) {
		e.SrcPort = port
		sink += leaf.ecmpPick(pkt, cands).ID()
	}
	if allocs := testing.AllocsPerRun(100, func() { pick(40000) }); allocs != 0 {
		b.Fatalf("allocs per ECMP pick = %v, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pick(uint16(32768 + i&32767))
	}
	_ = sink
}

// poolSink is a Node that returns every packet it receives to its pool.
type poolSink struct{ pool *packet.Pool }

func (k poolSink) ID() packet.NodeID                   { return 99 }
func (k poolSink) Receive(pkt *packet.Packet, _ *Link) { k.pool.Put(pkt) }

// BenchmarkHotPathLinkNoReader prices one transmission of an encapsulated
// full segment on a link of a topology that tracks no utilization, so the
// link keeps no DRE: enqueue, serialization in its lane, propagation in its
// lane, and delivery to a sink that recycles the packet. It fails on any
// allocation; the CI bench-smoke job runs it.
func BenchmarkHotPathLinkNoReader(b *testing.B) {
	s := sim.New(1)
	pool := &packet.Pool{}
	l := newLink(s, pool, 0, nil, poolSink{pool}, LinkConfig{RateBps: 40e9, Delay: 2 * sim.Microsecond})
	if l.dre != nil {
		b.Fatal("a link outside a tracking topology has a DRE")
	}
	send := func() {
		pkt := pool.Get()
		pkt.Kind = packet.KindData
		pkt.AddEncap()
		pkt.PayloadLen = packet.MaxSegment
		l.Enqueue(pkt)
		s.Run()
	}
	send()
	if l.txLane(encapFull) == nil || l.Stats().TxBytes != encapFull {
		b.Fatalf("the packet was %d bytes, not a full segment in its lane", l.Stats().TxBytes)
	}
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		b.Fatalf("allocs per transmission = %v, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}
