package netem

import (
	"testing"

	"clove/internal/packet"
	"clove/internal/sim"
)

// collector is a Node that records delivered packets.
type collector struct {
	id  packet.NodeID
	got []*packet.Packet
	at  []sim.Time
	s   *sim.Simulator
}

func (c *collector) ID() packet.NodeID { return c.id }
func (c *collector) Receive(p *packet.Packet, _ *Link) {
	c.got = append(c.got, p)
	if c.s != nil {
		c.at = append(c.at, c.s.Now())
	}
}

func dataPacket(src, dst packet.HostID, payload int) *packet.Packet {
	return &packet.Packet{
		Kind:       packet.KindData,
		Inner:      packet.FiveTuple{Src: src, Dst: dst, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP},
		PayloadLen: payload,
	}
}

func TestLinkDeliveryTiming(t *testing.T) {
	s := sim.New(1)
	c := &collector{id: 99, s: s}
	l := newLink(s, nil, 0, nil, c, LinkConfig{RateBps: 1e9, Delay: 10 * sim.Microsecond})
	p := dataPacket(0, 1, 1000-packet.InnerHeaderLen) // 1000B on the wire
	l.Enqueue(p)
	s.Run()
	if len(c.got) != 1 {
		t.Fatalf("delivered %d packets", len(c.got))
	}
	// 1000B at 1Gbps = 8us serialization + 10us propagation = 18us.
	want := 18 * sim.Microsecond
	if c.at[0] != want {
		t.Errorf("arrival at %v, want %v", c.at[0], want)
	}
	st := l.Stats()
	if st.TxPackets != 1 || st.TxBytes != 1000 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLinkSerializesBackToBack(t *testing.T) {
	s := sim.New(1)
	c := &collector{id: 99, s: s}
	l := newLink(s, nil, 0, nil, c, LinkConfig{RateBps: 1e9, Delay: 0})
	for i := 0; i < 3; i++ {
		l.Enqueue(dataPacket(0, 1, 1000-packet.InnerHeaderLen))
	}
	s.Run()
	if len(c.at) != 3 {
		t.Fatalf("delivered %d", len(c.at))
	}
	for i, at := range c.at {
		want := sim.Time(i+1) * 8 * sim.Microsecond
		if at != want {
			t.Errorf("packet %d at %v, want %v", i, at, want)
		}
	}
}

// dropRecorder counts the drop-tail discards a link reports to its pool's
// observer. It implements only the hooks a link and a pool call; the
// embedded nil Observer makes any other hook panic.
type dropRecorder struct {
	packet.Observer
	queueFull int
}

func (r *dropRecorder) PoolGet(*packet.Packet)                                         {}
func (r *dropRecorder) PoolPut(*packet.Packet)                                         {}
func (r *dropRecorder) LinkEnqueue(packet.LinkID, *packet.Packet, int, int, int, bool) {}
func (r *dropRecorder) LinkDeliver(packet.LinkID, *packet.Packet)                      {}
func (r *dropRecorder) LinkDrop(_ packet.LinkID, _ *packet.Packet, reason packet.DropReason, _, _ int) {
	if reason == packet.DropQueueFull {
		r.queueFull++
	}
}

func TestLinkDropTail(t *testing.T) {
	s := sim.New(1)
	c := &collector{id: 99}
	pool := &packet.Pool{}
	rec := &dropRecorder{}
	pool.SetObserver(rec)
	l := newLink(s, pool, 0, nil, c, LinkConfig{RateBps: 1e9, Delay: 0, QueueCap: 4})
	// One packet starts serializing immediately, 4 fill the queue, rest drop.
	for i := 0; i < 10; i++ {
		l.Enqueue(dataPacket(0, 1, 100))
	}
	s.Run()
	if len(c.got) != 5 {
		t.Errorf("delivered %d, want 5", len(c.got))
	}
	if rec.queueFull != 5 || l.Stats().Drops != 5 {
		t.Errorf("dropped %d (stats %d), want 5", rec.queueFull, l.Stats().Drops)
	}
}

func TestLinkECNMarking(t *testing.T) {
	s := sim.New(1)
	c := &collector{id: 99}
	l := newLink(s, nil, 0, nil, c, LinkConfig{RateBps: 1e9, Delay: 0, QueueCap: 100, ECNK: 3})
	for i := 0; i < 8; i++ {
		p := dataPacket(0, 1, 100)
		p.Encap = &packet.Encap{ECT: true}
		l.Enqueue(p)
	}
	s.Run()
	// Enqueue i=0 starts tx immediately (queue len 0 at marking check);
	// i=1..3 see queue 0,1,2 -> below K=3; i=4..7 see 3,4,5,6 -> marked.
	marked := 0
	for _, p := range c.got {
		if p.CEMarked() {
			marked++
		}
	}
	if marked != 4 {
		t.Errorf("marked %d, want 4", marked)
	}
	if l.Stats().ECNMarks != 4 {
		t.Errorf("stats.ECNMarks = %d", l.Stats().ECNMarks)
	}
}

func TestLinkECNNotMarkedWhenNotECT(t *testing.T) {
	s := sim.New(1)
	c := &collector{id: 99}
	l := newLink(s, nil, 0, nil, c, LinkConfig{RateBps: 1e9, Delay: 0, ECNK: 1})
	for i := 0; i < 5; i++ {
		l.Enqueue(dataPacket(0, 1, 100)) // no ECT anywhere
	}
	s.Run()
	if l.Stats().ECNMarks != 0 {
		t.Errorf("marks = %d on non-ECT traffic", l.Stats().ECNMarks)
	}
}

func TestLinkDown(t *testing.T) {
	s := sim.New(1)
	c := &collector{id: 99}
	l := newLink(s, nil, 0, nil, c, LinkConfig{RateBps: 1e9, Delay: 0})
	l.SetUp(false)
	l.Enqueue(dataPacket(0, 1, 100))
	s.Run()
	if len(c.got) != 0 {
		t.Error("down link delivered a packet")
	}
	if l.Stats().DownDrops != 1 {
		t.Errorf("DownDrops = %d", l.Stats().DownDrops)
	}
	l.SetUp(true)
	l.Enqueue(dataPacket(0, 1, 100))
	s.Run()
	if len(c.got) != 1 {
		t.Error("revived link did not deliver")
	}
}

func TestLinkDownFlushesQueue(t *testing.T) {
	s := sim.New(1)
	c := &collector{id: 99}
	l := newLink(s, nil, 0, nil, c, LinkConfig{RateBps: 1e6, Delay: 0}) // slow
	for i := 0; i < 5; i++ {
		l.Enqueue(dataPacket(0, 1, 100))
	}
	s.After(1, func() { l.SetUp(false) })
	s.Run()
	if len(c.got) != 0 {
		t.Errorf("delivered %d after mid-flight down", len(c.got))
	}
}

func TestDREConvergesToUtilization(t *testing.T) {
	s := sim.New(1)
	d := NewDRE(s, 1e9) // 1 Gbps
	// Feed exactly 50% of line rate for 10ms: 1 packet of 625B every 10us
	// is 0.5 Gbps... (625*8/10us = 500Mbps).
	for i := 0; i < 1000; i++ {
		at := sim.Time(i) * 10 * sim.Microsecond
		s.At(at, func() { d.Add(625) })
	}
	var got float64
	s.At(10*sim.Millisecond, func() { got = d.Utilization() })
	s.Run()
	if got < 0.4 || got > 0.6 {
		t.Errorf("utilization = %v, want ~0.5", got)
	}
}

func TestDREDecaysWhenIdle(t *testing.T) {
	s := sim.New(1)
	d := NewDRE(s, 1e9)
	s.At(0, func() { d.Add(100000) })
	var early, late float64
	s.At(sim.Microsecond, func() { early = d.Utilization() })
	s.At(50*sim.Millisecond, func() { late = d.Utilization() })
	s.Run()
	if late >= early {
		t.Errorf("DRE did not decay: early=%v late=%v", early, late)
	}
	if late > 0.001 {
		t.Errorf("DRE residual after long idle: %v", late)
	}
}

// previewPath names the links pkt would take from src to its destination
// host, following RoutePreview at each switch.
func previewPath(t *testing.T, src *Host, pkt *packet.Packet) string {
	t.Helper()
	lk := src.Uplink()
	key := lk.Name()
	for hop := 0; hop < 16; hop++ {
		sw, ok := lk.To().(*Switch)
		if !ok {
			return key
		}
		if lk = sw.RoutePreview(pkt); lk == nil {
			t.Fatalf("no route for %v after %s", pkt, key)
		}
		key += "," + lk.Name()
	}
	t.Fatalf("routing loop: %s", key)
	return ""
}

func paperScaleTopo(t *testing.T) *LeafSpine {
	t.Helper()
	s := sim.New(42)
	return BuildLeafSpine(s, PaperTestbed(0.01)) // 100M/400M links
}

func TestLeafSpineConstruction(t *testing.T) {
	ls := paperScaleTopo(t)
	if len(ls.Hosts()) != 32 || len(ls.Switches()) != 4 {
		t.Fatalf("hosts=%d switches=%d", len(ls.Hosts()), len(ls.Switches()))
	}
	// Each leaf: 2 spines * 2 trunks + 16 host downlinks = 20 egress.
	for _, lf := range ls.Leaves {
		if got := len(lf.Egress()); got != 20 {
			t.Errorf("%s egress = %d, want 20", lf.Name(), got)
		}
	}
	// Each spine: 2 leaves * 2 trunks = 4 egress.
	for _, sp := range ls.Spines {
		if got := len(sp.Egress()); got != 4 {
			t.Errorf("%s egress = %d, want 4", sp.Name(), got)
		}
	}
	if ls.Cfg.BisectionBps() != int64(4*400e6) {
		t.Errorf("bisection = %d", ls.Cfg.BisectionBps())
	}
}

func TestRoutingCrossLeafECMP(t *testing.T) {
	ls := paperScaleTopo(t)
	l1 := ls.Leaves[0]
	// Cross-leaf host (host 16 is on L2): 4 uplink candidates.
	nh := l1.NextHops(16)
	if len(nh) != 4 {
		t.Fatalf("L1 next-hops to h16 = %d, want 4", len(nh))
	}
	// Same-leaf host: exactly the downlink.
	nh = l1.NextHops(3)
	if len(nh) != 1 {
		t.Fatalf("L1 next-hops to h3 = %d, want 1", len(nh))
	}
	// Spine to any host: trunks to that host's leaf.
	nh = ls.Spines[0].NextHops(16)
	if len(nh) != 2 {
		t.Fatalf("S1 next-hops to h16 = %d, want 2", len(nh))
	}
}

func TestRoutingAfterFailure(t *testing.T) {
	ls := paperScaleTopo(t)
	ls.FailPaperLink()
	l1 := ls.Leaves[0]
	// All 4 L1 uplinks still lead to L2 (S2 keeps one trunk), so ECMP set
	// stays 4 wide — exactly the trap that hurts ECMP in Sec. 5.2.
	if got := len(l1.NextHops(16)); got != 4 {
		t.Errorf("L1 next-hops after failure = %d, want 4", got)
	}
	// S2 now has a single trunk to L2.
	if got := len(ls.Spines[1].NextHops(16)); got != 1 {
		t.Errorf("S2 next-hops after failure = %d, want 1", got)
	}
	// Revive.
	ls.SetLinkPairUp("L2", "S2", 0, true)
	if got := len(ls.Spines[1].NextHops(16)); got != 2 {
		t.Errorf("S2 next-hops after revival = %d, want 2", got)
	}
}

func TestEndToEndDeliveryAcrossFabric(t *testing.T) {
	ls := paperScaleTopo(t)
	src, dst := ls.Host(0), ls.Host(16)
	var got []*packet.Packet
	dst.Deliver = func(p *packet.Packet) { got = append(got, p) }
	for i := 0; i < 20; i++ {
		p := dataPacket(0, 16, 1000)
		p.Encap = &packet.Encap{SrcHyp: 0, DstHyp: 16, SrcPort: uint16(40000 + i), DstPort: 7471}
		src.Send(p)
	}
	ls.Sim.Run()
	if len(got) != 20 {
		t.Fatalf("delivered %d/20 across fabric", len(got))
	}
}

func TestECMPSpreadsAcrossPaths(t *testing.T) {
	ls := paperScaleTopo(t)
	paths := map[string]bool{}
	for i := 0; i < 256; i++ {
		p := dataPacket(0, 16, 100)
		p.Encap = &packet.Encap{SrcHyp: 0, DstHyp: 16, SrcPort: uint16(40000 + i), DstPort: 7471}
		paths[previewPath(t, ls.Host(0), p)] = true
	}
	// 4 first-hop choices x 2 spine trunk choices... spine has 2 trunks to
	// L2, so up to 8 distinct paths; require at least 4 distinct.
	if len(paths) < 4 {
		t.Errorf("ECMP used only %d distinct paths", len(paths))
	}
}

func TestECMPDeterministicPerTuple(t *testing.T) {
	ls := paperScaleTopo(t)
	trace := func() string {
		p := dataPacket(0, 16, 100)
		p.Encap = &packet.Encap{SrcHyp: 0, DstHyp: 16, SrcPort: 51234, DstPort: 7471}
		return previewPath(t, ls.Host(0), p)
	}
	a, b := trace(), trace()
	if a != b {
		t.Errorf("same tuple took different paths: %s vs %s", a, b)
	}
}

func TestECMPHashUniformity(t *testing.T) {
	// Distribution over 4 buckets across many source ports should be
	// roughly uniform for each seed.
	for _, seed := range []uint64{1, 0xdeadbeef, 42424242} {
		counts := make([]int, 4)
		for p := 0; p < 4000; p++ {
			t5 := packet.FiveTuple{Src: 1, Dst: 2, SrcPort: uint16(30000 + p), DstPort: 7471, Proto: packet.ProtoTCP}
			counts[hashTuple(seed, t5)%4]++
		}
		for i, c := range counts {
			if c < 800 || c > 1200 {
				t.Errorf("seed %x bucket %d: %d/4000, want ~1000", seed, i, c)
			}
		}
	}
}

func TestSwitchesHashDifferently(t *testing.T) {
	ls := paperScaleTopo(t)
	t5 := packet.FiveTuple{Src: 0, Dst: 16, SrcPort: 55555, DstPort: 7471, Proto: packet.ProtoTCP}
	a := hashTuple(ls.Leaves[0].seed, t5)
	b := hashTuple(ls.Leaves[1].seed, t5)
	if a == b {
		t.Error("two switches share a hash value for the same tuple (seeds equal?)")
	}
}

func TestProbeEchoMechanism(t *testing.T) {
	ls := paperScaleTopo(t)
	src := ls.Host(0)
	var echoes []*packet.Packet
	src.Deliver = func(p *packet.Packet) {
		if p.Kind == packet.KindProbeEcho {
			echoes = append(echoes, p)
		}
	}
	ls.Host(16).Deliver = func(p *packet.Packet) {}
	// TTL=1 expires at L1; TTL=2 at a spine; TTL=3 at L2.
	for ttl := 1; ttl <= 3; ttl++ {
		probe := &packet.Packet{
			Kind: packet.KindProbe, ProbeID: 7, ProbePort: 50001,
			TTL: ttl, HopIndex: ttl,
			Encap: &packet.Encap{SrcHyp: 0, DstHyp: 16, SrcPort: 50001, DstPort: 7471},
		}
		src.Send(probe)
	}
	ls.Sim.Run()
	if len(echoes) != 3 {
		t.Fatalf("got %d echoes, want 3", len(echoes))
	}
	byHop := map[int]*packet.Packet{}
	for _, e := range echoes {
		byHop[e.HopIndex] = e
	}
	if byHop[1] == nil || byHop[2] == nil || byHop[3] == nil {
		t.Fatalf("missing hop echoes: %v", byHop)
	}
	if byHop[1].EchoNode != ls.Leaves[0].ID() {
		t.Errorf("hop1 node = %d, want L1", byHop[1].EchoNode)
	}
	if n := byHop[2].EchoNode; n != ls.Spines[0].ID() && n != ls.Spines[1].ID() {
		t.Errorf("hop2 node = %d, want a spine", n)
	}
	if byHop[3].EchoNode != ls.Leaves[1].ID() {
		t.Errorf("hop3 node = %d, want L2", byHop[3].EchoNode)
	}
	// Hop echoes report egress consistent with actual forwarding: the hop-1
	// reported link should lead to the hop-2 node.
	l := ls.LinkByID(byHop[1].EchoLink)
	if l == nil || l.To().ID() != byHop[2].EchoNode {
		t.Error("hop1 reported egress inconsistent with hop2 switch")
	}
}

func TestINTStamping(t *testing.T) {
	ls := paperScaleTopo(t)
	ls.TrackUtilization()
	dst := ls.Host(16)
	var got *packet.Packet
	dst.Deliver = func(p *packet.Packet) { got = p }
	p := dataPacket(0, 16, 1000)
	p.Encap = &packet.Encap{SrcHyp: 0, DstHyp: 16, SrcPort: 50001, DstPort: 7471}
	p.INT.Enabled = true
	ls.Host(0).Send(p)
	ls.Sim.Run()
	if got == nil {
		t.Fatal("not delivered")
	}
	if got.INT.Hops != 3 {
		t.Errorf("INT hops = %d, want 3 (L1, spine, L2)", got.INT.Hops)
	}
}

func TestNoRouteCounted(t *testing.T) {
	s := sim.New(1)
	topo := NewTopology(s)
	sw := topo.AddSwitch("X")
	p := dataPacket(0, 99, 10)
	sw.Receive(p, nil)
	if sw.Stats().NoRoute != 1 {
		t.Error("NoRoute not counted")
	}
}

func TestHostUndelivered(t *testing.T) {
	ls := paperScaleTopo(t)
	h := ls.Host(5)
	h.Receive(dataPacket(0, 5, 10), nil)
	if h.undelivered != 1 {
		t.Error("undelivered not counted without Deliver handler")
	}
}

func TestSetLinkPairUpPanicsOnUnknown(t *testing.T) {
	ls := paperScaleTopo(t)
	defer func() {
		if recover() == nil {
			t.Error("no panic for unknown link pair")
		}
	}()
	ls.SetLinkPairUp("L9", "S9", 0, false)
}

func TestBaseRTTPositive(t *testing.T) {
	ls := paperScaleTopo(t)
	if ls.Cfg.BaseRTT() <= 0 {
		t.Error("BaseRTT not positive")
	}
}
