package conga

import (
	"testing"

	"clove/internal/netem"
	"clove/internal/packet"
	"clove/internal/sim"
	"clove/internal/tcp"
	"clove/internal/vswitch"
)

// congaRig builds the paper fabric with CONGA attached and plain ECMP
// vswitches (CONGA does the balancing in-network).
type congaRig struct {
	s   *sim.Simulator
	ls  *netem.LeafSpine
	f   *Fabric
	vsw []*vswitch.VSwitch
}

func newCongaRig(seed int64) *congaRig {
	s := sim.New(seed)
	ls := netem.BuildLeafSpine(s, netem.PaperTestbed(0.01))
	f := Attach(ls, Config{FlowletGap: ls.BaseRTT() / 2})
	r := &congaRig{s: s, ls: ls, f: f}
	cfg := vswitch.DefaultConfig(ls.BaseRTT())
	cfg.MaskECN = false
	for _, h := range ls.Hosts() {
		r.vsw = append(r.vsw, vswitch.New(s, h, cfg, vswitch.NewECMP()))
	}
	return r
}

func (r *congaRig) conn(a, b packet.HostID, sp, dp uint16) (*tcp.Sender, *tcp.Receiver) {
	flow := packet.FiveTuple{Src: a, Dst: b, SrcPort: sp, DstPort: dp, Proto: packet.ProtoTCP}
	cfg := tcp.DefaultConfig()
	snd := tcp.NewSender(r.s, cfg, flow, r.vsw[a].FromVM)
	rcv := tcp.NewReceiver(r.s, cfg, flow, r.vsw[b].FromVM)
	r.vsw[b].Register(flow, rcv.HandleData)
	r.vsw[a].Register(flow.Reverse(), snd.HandleAck)
	return snd, rcv
}

func TestCongaTransfersComplete(t *testing.T) {
	r := newCongaRig(1)
	done := 0
	for i := 0; i < 4; i++ {
		snd, _ := r.conn(packet.HostID(i), packet.HostID(16+i), 1000, 2000)
		snd.StartJob(500_000, func(sim.Time) { done++ })
	}
	r.s.RunUntil(10 * sim.Second)
	if done != 4 {
		t.Fatalf("completed %d/4 under CONGA", done)
	}
	if r.f.Stats().FlowletsRouted == 0 {
		t.Error("CONGA routed no flowlets")
	}
}

func TestCongaLearnsAndFeedsBackMetrics(t *testing.T) {
	r := newCongaRig(2)
	snd, _ := r.conn(0, 16, 1000, 2000)
	snd.StartJob(2_000_000, nil)
	snd2, _ := r.conn(16, 0, 1500, 2500) // reverse traffic for feedback
	snd2.StartJob(2_000_000, nil)
	r.s.RunUntil(5 * sim.Second)
	st := r.f.Stats()
	if st.MetricsLearned == 0 {
		t.Error("destination leaf learned no metrics")
	}
	if st.FeedbackSent == 0 {
		t.Error("no feedback piggybacked")
	}
	// The source leaf's (L1's) toLeaf table should be populated.
	tl := r.f.leaves[0].toLeaf
	if len(tl) == 0 {
		t.Error("L1 toLeaf table empty after bidirectional traffic")
	}
}

func TestCongaAvoidsFailedTrunkBottleneck(t *testing.T) {
	r := newCongaRig(3)
	r.ls.FailPaperLink() // S2->L2#0 down: S2 keeps one trunk to L2
	// Several heavy flows cross-leaf.
	done := 0
	for i := 0; i < 8; i++ {
		snd, _ := r.conn(packet.HostID(i), packet.HostID(16+i), 1000, 2000)
		snd.StartJob(1_000_000, func(sim.Time) { done++ })
	}
	r.s.RunUntil(30 * sim.Second)
	if done != 8 {
		t.Fatalf("completed %d/8 on asymmetric fabric", done)
	}
	// Traffic through S2 must be lighter than through S1 (S2 has half the
	// downlink capacity): compare bytes on L1->S1 uplinks vs L1->S2.
	var viaS1, viaS2 int64
	for _, name := range []string{"L1->S1#0", "L1->S1#1"} {
		viaS1 += r.ls.LinkByName(name).Stats().TxBytes
	}
	for _, name := range []string{"L1->S2#0", "L1->S2#1"} {
		viaS2 += r.ls.LinkByName(name).Stats().TxBytes
	}
	if viaS2 >= viaS1 {
		t.Errorf("CONGA did not shift load away from the degraded spine: S1=%d S2=%d", viaS1, viaS2)
	}
}

func TestCongaFlowletPinning(t *testing.T) {
	// Back-to-back packets of one flow must stay on one uplink.
	r := newCongaRig(4)
	l1 := r.ls.Leaves[0]
	st := r.f.leaves[0]
	flow := packet.FiveTuple{Src: 0, Dst: 16, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	mk := func() *packet.Packet {
		return &packet.Packet{Kind: packet.KindData, Inner: flow, PayloadLen: 100,
			Encap: &packet.Encap{SrcHyp: 0, DstHyp: 16, SrcPort: 50000, DstPort: 7471}}
	}
	cands := l1.NextHops(16)
	first, ok := st.Pick(l1, mk(), cands)
	if !ok || first == nil {
		t.Fatal("no pick at source leaf")
	}
	for i := 0; i < 5; i++ {
		next, _ := st.Pick(l1, mk(), cands)
		if next != first {
			t.Fatal("flowlet changed uplink mid-burst")
		}
	}
	if st.pins.links[packet.FiveTuple{Src: 0, Dst: 16, SrcPort: 50000, DstPort: 7471, Proto: packet.ProtoTCP}] == nil {
		t.Error("no pinned entry for the outer tuple")
	}
}

func TestCongaSameLeafTrafficUntouched(t *testing.T) {
	r := newCongaRig(5)
	l1 := r.ls.Leaves[0]
	flow := packet.FiveTuple{Src: 0, Dst: 1, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	p := &packet.Packet{Kind: packet.KindData, Inner: flow, PayloadLen: 100,
		Encap: &packet.Encap{SrcHyp: 0, DstHyp: 1, SrcPort: 50000, DstPort: 7471}}
	_, ok := r.f.leaves[0].Pick(l1, p, l1.NextHops(1))
	if ok {
		t.Error("CONGA intervened in same-leaf traffic")
	}
	if p.Conga != nil {
		t.Error("same-leaf packet tagged")
	}
}

// BenchmarkHotPathCongaPinnedHop prices one packet of a pinned flowlet
// through its source leaf's CONGA pick and a spine's trunk pick, and fails on
// any allocation or a re-pin; the CI bench-smoke job runs it.
func BenchmarkHotPathCongaPinnedHop(b *testing.B) {
	r := newCongaRig(6)
	leaf, l := r.ls.Leaves[0], r.f.leaves[0]
	spine := &spineLB{pins: newPins(r.ls.BaseRTT() / 2)} // as Attach installs it
	pkt := &packet.Packet{Kind: packet.KindData, PayloadLen: 1000,
		Inner: packet.FiveTuple{Src: 0, Dst: 16, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP},
		Encap: &packet.Encap{SrcHyp: 0, DstHyp: 16, SrcPort: 50000, DstPort: 7471}}
	leafCands := leaf.NextHops(16)
	var spineSw *netem.Switch
	hop := func() {
		up, _ := l.Pick(leaf, pkt, leafCands)
		if spineSw == nil {
			spineSw = up.To().(*netem.Switch)
		}
		spine.Pick(spineSw, pkt, spineSw.NextHops(16))
	}
	hop()
	if allocs := testing.AllocsPerRun(100, hop); allocs != 0 {
		b.Fatalf("allocs per pinned leaf and spine hop = %v, want 0", allocs)
	}
	if n := r.f.Stats().FlowletsRouted; n != 1 {
		b.Fatalf("flowlet routed %d times, want 1 (pinned)", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hop()
	}
}
