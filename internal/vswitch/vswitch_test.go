package vswitch

import (
	"strings"
	"testing"

	"clove/internal/clove"
	"clove/internal/netem"
	"clove/internal/packet"
	"clove/internal/sim"
	"clove/internal/tcp"
)

// rig is a test fabric: leaf-spine topology with a vswitch per host, all
// sharing one flow table.
type rig struct {
	s     *sim.Simulator
	ls    *netem.LeafSpine
	vsw   []*VSwitch
	rtt   sim.Time
	tcpC  tcp.Config
	flows Flows
	// handles holds the handle of each tuple rig.handle opened, both ways.
	handles map[packet.FiveTuple]packet.FlowHandle
}

// newRig builds a scaled-down paper testbed with the given policy factory.
func newRig(t testing.TB, seed int64, mkPolicy func(i int) PathPolicy, mutate func(*Config)) *rig {
	t.Helper()
	s := sim.New(seed)
	ls := netem.BuildLeafSpine(s, netem.PaperTestbed(0.01)) // 100M host links
	r := &rig{s: s, ls: ls, rtt: ls.Cfg.BaseRTT()}
	cfg := DefaultConfig(r.rtt)
	cfg.Flows = &r.flows
	if mutate != nil {
		mutate(&cfg)
	}
	for i, h := range ls.Hosts() {
		r.vsw = append(r.vsw, New(s, h, cfg, mkPolicy(i)))
	}
	r.tcpC = tcp.DefaultConfig()
	return r
}

// Static endpoints for Flows.Open.
func receiverData(a any, pkt *packet.Packet) { a.(*tcp.Receiver).HandleData(pkt) }
func senderAck(a any, pkt *packet.Packet)    { a.(*tcp.Sender).HandleAck(pkt) }
func release(a any, pkt *packet.Packet)      { a.(*packet.Pool).Put(pkt) }

// conn wires a one-direction TCP transfer from host a to host b, opening
// its flow handles, and returns the sender and receiver.
func (r *rig) conn(a, b packet.HostID, srcPort, dstPort uint16) (*tcp.Sender, *tcp.Receiver) {
	flow := packet.FiveTuple{Src: a, Dst: b, SrcPort: srcPort, DstPort: dstPort, Proto: packet.ProtoTCP}
	snd := tcp.NewSender(r.s, r.tcpC, flow, r.vsw[a].FromVM)
	rcv := tcp.NewReceiver(r.s, r.tcpC, flow, r.vsw[b].FromVM)
	data, ack := r.flows.Open(receiverData, rcv, senderAck, snd)
	snd.SetFlowHandle(data)
	rcv.SetFlowHandle(ack)
	return snd, rcv
}

// handle returns flow's handle for a packet a test hands to a vswitch
// itself, opening flow and its reverse on first use with endpoints that
// release what they get.
func (r *rig) handle(flow packet.FiveTuple) packet.FlowHandle {
	if h, ok := r.handles[flow]; ok {
		return h
	}
	if r.handles == nil {
		r.handles = map[packet.FiveTuple]packet.FlowHandle{}
	}
	pool := r.ls.Pool()
	fwd, rev := r.flows.Open(release, pool, release, pool)
	r.handles[flow], r.handles[flow.Reverse()] = fwd, rev
	return fwd
}

// fourPorts finds, by brute force over the rig's actual switch hashing,
// encap source ports that land on the four distinct L1 uplinks — a stand-in
// for the traceroute discovery tested separately in internal/discovery.
func (r *rig) fourPorts(t *testing.T, src, dst packet.HostID) []uint16 {
	t.Helper()
	leaf := r.ls.Leaves[0]
	if src >= 16 {
		leaf = r.ls.Leaves[1]
	}
	seen := map[packet.LinkID]uint16{}
	for port := uint16(32768); port < 42768 && len(seen) < 4; port++ {
		p := &packet.Packet{Encap: &packet.Encap{SrcHyp: src, DstHyp: dst, SrcPort: port, DstPort: 7471}}
		cands := leaf.NextHops(dst)
		if len(cands) == 0 {
			t.Fatal("no route")
		}
		lk := leaf.RoutePreview(p)
		if _, ok := seen[lk.ID()]; !ok {
			seen[lk.ID()] = port
		}
	}
	if len(seen) != 4 {
		t.Fatalf("found only %d distinct first hops", len(seen))
	}
	out := make([]uint16, 0, 4)
	for _, port := range seen {
		out = append(out, port)
	}
	return out
}

func TestECMPTransferAcrossFabric(t *testing.T) {
	r := newRig(t, 1, func(int) PathPolicy { return NewECMP() }, func(c *Config) { c.MaskECN = false })
	snd, rcv := r.conn(0, 16, 1000, 2000)
	var fct sim.Time = -1
	snd.StartJob(500_000, func(d sim.Time) { fct = d })
	r.s.RunUntil(10 * sim.Second)
	if fct < 0 {
		t.Fatalf("transfer incomplete: rcvd=%d", rcv.RcvNxt())
	}
	if rcv.Stats().BytesDelivered != 500_000 {
		t.Errorf("delivered %d", rcv.Stats().BytesDelivered)
	}
	vs := r.vsw[0].Stats()
	if vs.Encapped == 0 || r.vsw[16].Stats().Decapped == 0 {
		t.Errorf("encap/decap counters: %+v", vs)
	}
}

// pickRecorder wraps a per-flowlet policy and records every port it picks.
type pickRecorder struct {
	PathPolicy
	ports map[uint16]bool
}

func newPickRecorder(p PathPolicy) *pickRecorder {
	return &pickRecorder{PathPolicy: p, ports: map[uint16]bool{}}
}

func (r *pickRecorder) PickPort(dst packet.HostID, flow packet.FiveTuple, flowletID uint32) uint16 {
	port := r.PathPolicy.PickPort(dst, flow, flowletID)
	r.ports[port] = true
	return port
}

// prestoRecorder is pickRecorder for Presto's per-packet pick; it embeds
// the concrete policy so its receiver hook stays visible to the vswitch.
type prestoRecorder struct {
	*Presto
	ports map[uint16]bool
}

func (r *prestoRecorder) PickPortPacket(dst packet.HostID, flow packet.FiveTuple, payloadLen int) uint16 {
	port := r.Presto.PickPortPacket(dst, flow, payloadLen)
	r.ports[port] = true
	return port
}

func TestECMPPinsFlowToOnePath(t *testing.T) {
	// ECMP maps every flowlet of a flow to the same port, so the source
	// must pick exactly one distinct encap port.
	rec := newPickRecorder(NewECMP())
	r := newRig(t, 1, func(i int) PathPolicy {
		if i == 0 {
			return rec
		}
		return NewECMP()
	}, nil)
	snd, _ := r.conn(0, 16, 1000, 2000)
	snd.StartJob(300_000, nil)
	r.s.RunUntil(5 * sim.Second)
	if len(rec.ports) != 1 {
		t.Errorf("ECMP used %d ports for one flow, want 1", len(rec.ports))
	}
}

func TestEdgeFlowletUsesMultiplePorts(t *testing.T) {
	rec := newPickRecorder(NewEdgeFlowlet())
	r := newRig(t, 1, func(i int) PathPolicy {
		if i == 0 {
			return rec
		}
		return NewEdgeFlowlet()
	}, nil)
	snd, _ := r.conn(0, 16, 1000, 2000)
	// Many sequential small jobs with idle gaps create many flowlets.
	var start func(n int)
	start = func(n int) {
		if n == 0 {
			return
		}
		snd.StartJob(20_000, func(sim.Time) {
			r.s.After(5*r.rtt, func() { start(n - 1) })
		})
	}
	start(20)
	r.s.RunUntil(20 * sim.Second)
	if got := r.vsw[0].Flowlets(); got < 10 {
		t.Errorf("flowlets = %d, want many", got)
	}
	if got := len(rec.ports); got < 3 {
		t.Errorf("edge-flowlet used %d distinct ports", got)
	}
}

func TestCloveECNLearnsCongestion(t *testing.T) {
	mk := func(int) PathPolicy {
		return NewCloveECN(clove.DefaultWeightTableConfig(100 * sim.Microsecond))
	}
	r := newRig(t, 3, mk, nil)
	ports := r.fourPorts(t, 0, 16)
	pol := r.vsw[0].Policy().(*CloveECN)
	pol.SetPaths(16, ports)

	// Fail one trunk so two ports share the bottleneck, then drive enough
	// traffic to mark ECN.
	r.ls.FailPaperLink()
	snd, _ := r.conn(0, 16, 1000, 2000)
	snd.StartJob(3_000_000, nil)
	// A competing flow to add pressure.
	snd2, _ := r.conn(1, 16, 1001, 2001)
	snd2.StartJob(3_000_000, nil)
	r.s.RunUntil(5 * sim.Second)

	table := pol.Table(16)
	if table == nil {
		t.Fatal("no weight table")
	}
	w := table.Weights()
	var minW, maxW = 1.0, 0.0
	for _, x := range w {
		if x < minW {
			minW = x
		}
		if x > maxW {
			maxW = x
		}
	}
	if r.vsw[16].Stats().CEObserved == 0 {
		t.Fatal("no CE observed at receiver; congestion never happened")
	}
	if r.vsw[0].Stats().FeedbackReceived == 0 {
		t.Fatal("source never received feedback")
	}
	if maxW-minW < 0.01 {
		t.Errorf("weights did not differentiate: %v", w)
	}
}

func TestCloveECNMasksCEFromVM(t *testing.T) {
	mk := func(int) PathPolicy {
		return NewCloveECN(clove.DefaultWeightTableConfig(100 * sim.Microsecond))
	}
	r := newRig(t, 4, mk, nil)
	// Two senders into host 16 congest its downlink, whatever paths the
	// fabric offers.
	for src := packet.HostID(0); src < 2; src++ {
		r.vsw[src].Policy().(*CloveECN).SetPaths(16, r.fourPorts(t, src, 16))
	}
	snd, rcv := r.conn(0, 16, 1000, 2000)
	snd.StartJob(5_000_000, nil)
	snd2, rcv2 := r.conn(1, 16, 1001, 2001)
	snd2.StartJob(5_000_000, nil)
	r.s.RunUntil(3 * sim.Second)
	if r.vsw[16].Stats().CEObserved == 0 {
		t.Fatal("no congestion generated; nothing to mask")
	}
	if seen := rcv.Stats().CESeen + rcv2.Stats().CESeen; seen != 0 {
		t.Errorf("VMs saw %d CE marks despite masking", seen)
	}
	if r.vsw[16].Stats().ECNMasked == 0 {
		t.Error("mask counter zero")
	}
}

func TestRFC6040CopyWithoutMasking(t *testing.T) {
	r := newRig(t, 5, func(int) PathPolicy { return NewECMP() }, func(c *Config) { c.MaskECN = false })
	snd, rcv := r.conn(0, 16, 1000, 2000)
	snd.StartJob(5_000_000, nil)
	snd2, _ := r.conn(1, 16, 1001, 2001)
	snd2.StartJob(5_000_000, nil)
	r.s.RunUntil(3 * sim.Second)
	if r.vsw[16].Stats().CEObserved == 0 {
		t.Fatal("no congestion generated")
	}
	if rcv.Stats().CESeen == 0 {
		t.Error("CE not copied to inner on decap without masking")
	}
}

func TestStandaloneFeedbackWhenNoReverseTraffic(t *testing.T) {
	mk := func(int) PathPolicy {
		return NewCloveECN(clove.DefaultWeightTableConfig(100 * sim.Microsecond))
	}
	r := newRig(t, 6, mk, nil)
	// Hand-deliver a CE-marked packet to host 16's vswitch from host 0,
	// with no TCP connection (so no reverse data to piggyback on; the ACK
	// stream doesn't exist).
	inner := packet.FiveTuple{Src: 0, Dst: 16, SrcPort: 9, DstPort: 9, Proto: packet.ProtoTCP}
	p := &packet.Packet{
		Kind:       packet.KindData,
		Inner:      inner,
		Flow:       r.handle(inner),
		PayloadLen: 100,
		Encap:      &packet.Encap{SrcHyp: 0, DstHyp: 16, SrcPort: 50000, DstPort: 7471, ECT: true, CE: true},
	}
	r.vsw[16].FromNetwork(p)
	r.s.RunUntil(sim.Second)
	if r.vsw[16].Stats().FeedbackStandalone == 0 {
		t.Error("no standalone feedback emitted")
	}
	if r.vsw[0].Stats().FeedbackReceived == 0 {
		t.Error("source did not receive standalone feedback")
	}
}

func TestCloveINTPrefersIdlePath(t *testing.T) {
	var vsws []*VSwitch
	mk := func(i int) PathPolicy {
		return NewCloveINT(clove.DefaultWeightTableConfig(100*sim.Microsecond), func() sim.Time {
			return vsws[i].sim.Now()
		})
	}
	r := newRig(t, 7, mk, func(c *Config) { c.RequestINT = true })
	r.ls.TrackUtilization()
	vsws = r.vsw
	pol := r.vsw[0].Policy().(*CloveINT)
	ports := r.fourPorts(t, 0, 16)
	pol.SetPaths(16, ports)
	snd, _ := r.conn(0, 16, 1000, 2000)
	snd.StartJob(2_000_000, nil)
	r.s.RunUntil(3 * sim.Second)
	table := pol.Table(16)
	states := table.States()
	anyUtil := false
	for _, st := range states {
		if st.UtilAt > 0 {
			anyUtil = true
		}
	}
	if !anyUtil {
		t.Error("no INT utilization reports reached the source table")
	}
}

func TestPrestoFlowcellRotationAndReassembly(t *testing.T) {
	// Need the simulator before newRig constructs policies: construct in
	// two steps.
	s := sim.New(8)
	ls := netem.BuildLeafSpine(s, netem.PaperTestbed(0.01))
	r := &rig{s: s, ls: ls, rtt: ls.Cfg.BaseRTT(), tcpC: tcp.DefaultConfig()}
	cfg := DefaultConfig(r.rtt)
	cfg.MaskECN = false
	cfg.Flows = &r.flows
	rec := &prestoRecorder{Presto: NewPresto(s), ports: map[uint16]bool{}}
	for i := range ls.Hosts() {
		var pol PathPolicy = NewPresto(s)
		if i == 0 {
			pol = rec
		}
		r.vsw = append(r.vsw, New(s, ls.Hosts()[i], cfg, pol))
	}
	pol := rec.Presto
	pol.SetPaths(16, r.fourPorts(t, 0, 16))

	snd, rcv := r.conn(0, 16, 1000, 2000)
	var fct sim.Time = -1
	snd.StartJob(1_000_000, func(d sim.Time) { fct = d })
	r.s.RunUntil(10 * sim.Second)
	if fct < 0 {
		t.Fatal("presto transfer incomplete")
	}
	if pol.FlowcellsStarted < 10 {
		t.Errorf("flowcells = %d, want >= 10 for 1MB/64KB", pol.FlowcellsStarted)
	}
	// Reassembly must hide almost all reordering from the VM.
	if ooo := rcv.Stats().OutOfOrder; ooo > 20 {
		t.Errorf("VM saw %d out-of-order segments despite reassembly", ooo)
	}
	// And multiple paths were actually used.
	if got := len(rec.ports); got < 3 {
		t.Errorf("presto used %d distinct ports", got)
	}
}

func TestPrestoReorderBufferFlushOnTimeout(t *testing.T) {
	s := sim.New(9)
	pol := NewPresto(s)
	var delivered []int64
	deliver := func(p *packet.Packet) { delivered = append(delivered, p.Seq) }
	mkPkt := func(seq int64) *packet.Packet {
		return &packet.Packet{Inner: packet.FiveTuple{Src: 1, Dst: 2}, Seq: seq, PayloadLen: 100}
	}
	// Arrives out of order with a hole at 0 that never fills.
	pol.OnDeliver(mkPkt(100), deliver)
	pol.OnDeliver(mkPkt(200), deliver)
	if len(delivered) != 0 {
		t.Fatal("hole leaked through")
	}
	s.RunUntil(2 * PrestoReorderTimeout)
	if len(delivered) != 2 {
		t.Fatalf("timeout flush delivered %d", len(delivered))
	}
	if delivered[0] != 100 || delivered[1] != 200 {
		t.Errorf("flush out of order: %v", delivered)
	}
	if pol.TimeoutFlushes == 0 {
		t.Error("timeout flush not counted")
	}
}

// TestPrestoReorderTimerZeroAllocs pins that re-arming a warm reorder
// queue's timeout, and firing it, allocates nothing: each round buffers one
// packet past a hole, which arms the timer, and the timeout flushes it.
func TestPrestoReorderTimerZeroAllocs(t *testing.T) {
	s := sim.New(9)
	pol := NewPresto(s)
	delivered := 0
	deliver := func(*packet.Packet) { delivered++ }
	pkt := &packet.Packet{Inner: packet.FiveTuple{Src: 1, Dst: 2}, PayloadLen: 100}
	round := func() {
		pkt.Seq += 1000 // past a hole, so the packet is buffered
		pol.OnDeliver(pkt, deliver)
		s.Run()
	}
	round() // create the queue and warm the slab
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("allocs per re-arm = %v, want 0", allocs)
	}
	if want := int64(52); pol.TimeoutFlushes != want || delivered != int(want) {
		t.Fatalf("TimeoutFlushes = %d, delivered %d; want %d each", pol.TimeoutFlushes, delivered, want)
	}
}

func TestPrestoStaticWeights(t *testing.T) {
	s := sim.New(10)
	pol := NewPresto(s)
	pol.SetPaths(5, []uint16{10, 20, 30, 40})
	pol.SetStaticWeights(5, map[uint16]float64{10: 0.33, 20: 0.33, 30: 0.17, 40: 0.17})
	counts := map[uint16]int{}
	flow := packet.FiveTuple{Src: 1, Dst: 5, SrcPort: 99, DstPort: 98}
	// 100 flowcells worth of packets.
	for i := 0; i < 100*45; i++ {
		p := pol.PickPortPacket(5, flow, 1460)
		counts[p]++
	}
	if counts[10] <= counts[30] {
		t.Errorf("heavy port 10 (%d) not favored over light port 30 (%d)", counts[10], counts[30])
	}
}

func TestProbeEchoReachesProber(t *testing.T) {
	r := newRig(t, 11, func(int) PathPolicy { return NewECMP() }, nil)
	// The hook may not retain the echo packet (the vswitch recycles it when
	// the hook returns), so copy out the field under test.
	var echoes []packet.LinkID
	r.vsw[0].OnProbeEcho = func(p *packet.Packet) { echoes = append(echoes, p.EchoLink) }
	for ttl := 1; ttl <= 5; ttl++ {
		r.vsw[0].SendProbe(16, 51000, ttl, 42)
	}
	r.s.RunUntil(100 * sim.Millisecond)
	if len(echoes) != 5 {
		t.Fatalf("echoes = %d, want 5 (3 switches + dst host x2 overshoot)", len(echoes))
	}
	// TTL 4 and 5 overshoot the 3-switch path: answered by the host.
	hostEchoes := 0
	for _, link := range echoes {
		if link == -1 {
			hostEchoes++
		}
	}
	if hostEchoes != 2 {
		t.Errorf("host echoes = %d, want 2", hostEchoes)
	}
}

// TestUnregisteredFlowCounted: a tenant packet that arrives without a flow
// handle belongs to no flow, so the vswitch counts and releases it, and its
// CE mark and INT sample reach no peer record.
func TestUnregisteredFlowCounted(t *testing.T) {
	r := newRig(t, 12, func(int) PathPolicy { return NewECMP() }, nil)
	v, pool := r.vsw[16], r.ls.Pool()
	p := pool.Get()
	p.Kind = packet.KindData
	p.Inner = packet.FiveTuple{Src: 0, Dst: 16, SrcPort: 7, DstPort: 7, Proto: packet.ProtoTCP}
	p.PayloadLen = 10
	p.INT.Enabled, p.INT.MaxUtil = true, 0.5
	e := p.AddEncap()
	e.SrcHyp, e.DstHyp, e.SrcPort, e.DstPort, e.ECT, e.CE = 0, 16, 50000, EncapDstPort, true, true
	puts := pool.Puts()
	v.FromNetwork(p)
	if got := pool.Puts() - puts; got != 1 {
		t.Errorf("%d packets released, want 1", got)
	}
	if st := v.Stats(); st.NoHandler != 1 || st.Decapped != 0 || st.CEObserved != 0 {
		t.Errorf("stats %+v, want only NoHandler = 1", st)
	}
	if n := len(v.peers); n != 0 {
		t.Errorf("%d peer records, want 0", n)
	}
}

// TestFromVMRequiresHandle: every tenant packet carries its flow's handle,
// so FromVM refuses one without, naming its tuple.
func TestFromVMRequiresHandle(t *testing.T) {
	r := newRig(t, 12, func(int) PathPolicy { return NewECMP() }, nil)
	flow := packet.FiveTuple{Src: 0, Dst: 16, SrcPort: 1000, DstPort: 2000, Proto: packet.ProtoTCP}
	defer func() {
		rec := recover()
		if msg, _ := rec.(string); !strings.Contains(msg, flow.String()) {
			t.Errorf("panic %v, want one naming %s", rec, flow)
		}
	}()
	r.vsw[0].FromVM(&packet.Packet{Kind: packet.KindData, Inner: flow, PayloadLen: 10})
}

func TestFeedbackRateLimiting(t *testing.T) {
	mk := func(int) PathPolicy {
		return NewCloveECN(clove.DefaultWeightTableConfig(100 * sim.Microsecond))
	}
	r := newRig(t, 13, mk, nil)
	v := r.vsw[16]
	// Observe CE on the same path many times within one relay interval.
	inner := packet.FiveTuple{Src: 0, Dst: 16, SrcPort: 9, DstPort: 9, Proto: packet.ProtoTCP}
	for i := 0; i < 10; i++ {
		p := &packet.Packet{
			Kind:       packet.KindData,
			Inner:      inner,
			Flow:       r.handle(inner),
			PayloadLen: 10,
			Encap:      &packet.Encap{SrcHyp: 0, DstHyp: 16, SrcPort: 50000, DstPort: 7471, ECT: true, CE: true},
		}
		v.FromNetwork(p)
	}
	// First outgoing packet toward host 0 carries feedback...
	take := func(now sim.Time) (packet.Feedback, bool) {
		return v.findPeer(0).paths.Take(now, v.cfg.RelayInterval)
	}
	fb1, ok1 := take(v.sim.Now())
	// ...the second within the same interval must not.
	_, ok2 := take(v.sim.Now())
	if !ok1 || !fb1.ECN || fb1.Port != 50000 {
		t.Fatalf("first relay: %v %v", fb1, ok1)
	}
	if ok2 {
		t.Error("relay not rate-limited per path")
	}
	// After the interval elapses with no new CE, nothing pending (ECN was
	// consumed) unless util is known — there is none here.
	_, ok3 := take(v.sim.Now() + 10*v.cfg.RelayInterval)
	if ok3 {
		t.Error("stale relay without pending state")
	}
}

// TestPeerRecordAllocs pins the receive side's per-peer cost: a first INT
// sample from a new peer builds its record and path array (two objects),
// and a new port of a known peer extends the array in place, so it
// allocates only on the array's amortized growth.
func TestPeerRecordAllocs(t *testing.T) {
	r := newRig(t, 14, func(int) PathPolicy { return NewECMP() }, nil)
	v := r.vsw[0]
	inner := func(remote packet.HostID) packet.FiveTuple {
		return packet.FiveTuple{Src: remote, Dst: 0, SrcPort: 9, DstPort: 9, Proto: packet.ProtoTCP}
	}
	for remote := packet.HostID(1000); remote <= 1201; remote++ {
		r.handle(inner(remote)) // open every flow before counting
	}
	recv := func(remote packet.HostID, port uint16) {
		p := v.pool.Get()
		p.Kind = packet.KindData
		p.Inner = inner(remote)
		p.Flow = r.handle(p.Inner)
		p.INT.Enabled, p.INT.MaxUtil = true, 0.5
		e := p.AddEncap()
		e.SrcHyp, e.DstHyp, e.SrcPort, e.DstPort = remote, 0, port, EncapDstPort
		v.FromNetwork(p)
	}
	remote := packet.HostID(1000)
	recv(remote, 50000)
	if n := testing.AllocsPerRun(200, func() { remote++; recv(remote, 50000) }); n > 2 {
		t.Errorf("a new peer allocates %v objects, want <= 2", n)
	}
	port := uint16(50000)
	if n := testing.AllocsPerRun(200, func() { port++; recv(remote, port) }); n != 0 {
		t.Errorf("a new port of a known peer allocates %v objects, want 0 amortized", n)
	}
}

// TestPlainPacketsMakeNoPeerRecord: a receiver keeps a record only for a
// peer with something to relay, so plain, unmarked packets from unseen
// peers, each on its own path, create no record and allocate nothing.
func TestPlainPacketsMakeNoPeerRecord(t *testing.T) {
	r := newRig(t, 14, func(int) PathPolicy { return NewECMP() }, nil)
	v := r.vsw[0]
	inner := func(remote packet.HostID) packet.FiveTuple {
		return packet.FiveTuple{Src: remote, Dst: 0, SrcPort: 9, DstPort: 9, Proto: packet.ProtoTCP}
	}
	for remote := packet.HostID(1001); remote <= 1066; remote++ {
		r.handle(inner(remote)) // open every flow before counting
	}
	remote, port := packet.HostID(1000), uint16(50000)
	recv := func() {
		remote++
		port++
		p := v.pool.Get()
		p.Kind = packet.KindData
		p.Inner = inner(remote)
		p.Flow = r.handle(p.Inner)
		e := p.AddEncap()
		e.SrcHyp, e.DstHyp, e.SrcPort, e.DstPort, e.ECT = remote, 0, port, EncapDstPort, true
		v.FromNetwork(p)
	}
	recv() // warm the pool
	if n := testing.AllocsPerRun(64, recv); n != 0 {
		t.Errorf("a plain packet from an unseen peer allocates %v objects, want 0", n)
	}
	if n := len(v.peers); n != 0 {
		t.Errorf("%d peer records after plain packets from 66 peers, want 0", n)
	}
	if got := v.Stats().Decapped; got != 66 {
		t.Errorf("Decapped = %d, want 66", got)
	}
}

// BenchmarkHotPathVSwitchReceiveCE prices the receive side of Clove's
// feedback loop at steady state: a CE-marked packet from a known peer, then
// a tenant send toward that peer that piggybacks the mark, one relay
// interval later so the path is due again. It fails on any allocation or a
// send that carries no feedback; the CI bench-smoke job runs it.
func BenchmarkHotPathVSwitchReceiveCE(b *testing.B) {
	r := newRig(b, 15, func(int) PathPolicy { return NewECMP() }, nil)
	v := r.vsw[16]
	flow := packet.FiveTuple{Src: 0, Dst: 16, SrcPort: 9, DstPort: 9, Proto: packet.ProtoTCP}
	data := r.handle(flow)
	now := r.s.Now()
	step := func() {
		now += v.cfg.RelayInterval
		r.s.RunUntil(now)
		p := v.pool.Get()
		p.Kind = packet.KindData
		p.Inner, p.Flow = flow, data
		p.PayloadLen = 100
		e := p.AddEncap()
		e.SrcHyp, e.DstHyp, e.SrcPort, e.DstPort, e.ECT, e.CE = 0, 16, 50000, EncapDstPort, true, true
		v.FromNetwork(p)
		q := v.pool.Get()
		q.Kind = packet.KindData
		q.Inner, q.Flow = flow.Reverse(), data^1
		q.PayloadLen = 100
		v.FromVM(q)
	}
	step()
	before := v.Stats().FeedbackPiggy
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		b.Fatalf("allocs per CE receive and piggybacking send = %v, want 0", allocs)
	}
	if got := v.Stats().FeedbackPiggy - before; got != 51 {
		b.Fatalf("%d of 51 sends piggybacked feedback", got)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkHotPathVSwitchDeliver prices the receive side of a data packet
// that carries a flow handle: decapsulation, then the endpoint found by
// indexing the fabric's flow table, with no tuple hashed. It fails on any
// allocation or a packet the endpoint did not get; the CI bench-smoke job
// runs it.
func BenchmarkHotPathVSwitchDeliver(b *testing.B) {
	r := newRig(b, 16, func(int) PathPolicy { return NewECMP() }, nil)
	v := r.vsw[16]
	got := 0
	sink := func(a any, pkt *packet.Packet) {
		got++
		a.(*packet.Pool).Put(pkt)
	}
	data, _ := r.flows.Open(sink, v.pool, sink, v.pool)
	flow := packet.FiveTuple{Src: 0, Dst: 16, SrcPort: 9, DstPort: 9, Proto: packet.ProtoTCP}
	step := func() {
		p := v.pool.Get()
		p.Kind = packet.KindData
		p.Inner, p.Flow = flow, data
		p.PayloadLen = 1000
		e := p.AddEncap()
		e.SrcHyp, e.DstHyp, e.SrcPort, e.DstPort, e.ECT = 0, 16, 50000, EncapDstPort, true
		v.FromNetwork(p)
	}
	step()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		b.Fatalf("allocs per handled delivery = %v, want 0", allocs)
	}
	if got != 102 || v.Stats().NoHandler != 0 { // AllocsPerRun warms up with one more call
		b.Fatalf("endpoint got %d of 102 packets, %d unhandled", got, v.Stats().NoHandler)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
