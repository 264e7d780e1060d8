package oracle_test

import (
	"strings"
	"testing"

	"clove/internal/netem"
	"clove/internal/oracle"
	"clove/internal/packet"
	"clove/internal/sim"
	"clove/internal/tcp"
)

// fabric builds the minimal forwarding path (host -> leaf switch -> host)
// with the oracle installed on the topology pool and the sim event hook.
// The destination host has no Deliver hook, so it sinks packets back into
// the pool — the clean lifecycle the conservation invariant expects.
func fabric(t *testing.T, downCfg netem.LinkConfig) (*sim.Simulator, *netem.Topology, *netem.Host, *netem.Host, *oracle.Oracle) {
	t.Helper()
	s := sim.New(1)
	topo := netem.NewTopology(s)
	sw := topo.AddSwitch("S")
	upCfg := netem.LinkConfig{RateBps: 40e9, Delay: 2 * sim.Microsecond}
	if downCfg.RateBps == 0 {
		downCfg = upCfg
	}
	src := topo.AddHost("h0", sw, upCfg, downCfg)
	dst := topo.AddHost("h1", sw, upCfg, downCfg)
	topo.ComputeRoutes()
	o := oracle.New()
	topo.Pool().SetObserver(o)
	s.SetEventHook(o.AfterEvent)
	return s, topo, src, dst, o
}

func dataPacket(pool *packet.Pool, src, dst packet.HostID, ect bool) *packet.Packet {
	pkt := pool.Get()
	pkt.Kind = packet.KindData
	pkt.Inner = packet.FiveTuple{Src: src, Dst: dst, SrcPort: 40000, DstPort: 80, Proto: packet.ProtoTCP}
	pkt.PayloadLen = 1460
	pkt.InnerECT = ect
	return pkt
}

// wantViolation asserts the oracle detected at least one violation of class
// and that Check surfaces it as an error.
func wantViolation(t *testing.T, o *oracle.Oracle, pending int, class string) {
	t.Helper()
	if err := o.Check(pending); err == nil {
		t.Fatalf("oracle missed a seeded %s violation", class)
	}
	for _, v := range o.Violations() {
		if v.Class == class {
			return
		}
	}
	t.Fatalf("no %s violation recorded; got %v", class, o.Violations())
}

func TestCleanForwardingNoViolations(t *testing.T) {
	s, topo, src, dst, o := fabric(t, netem.LinkConfig{})
	for i := 0; i < 50; i++ {
		src.Send(dataPacket(topo.Pool(), 0, 1, false))
	}
	s.Run()
	if err := o.Check(s.Pending()); err != nil {
		t.Fatalf("clean run flagged: %v", err)
	}
	if dst.RxPackets() != 50 {
		t.Fatalf("sink received %d packets, want 50", dst.RxPackets())
	}
	st := o.Stats()
	if st.PacketsCreated != st.PacketsReleased || st.PacketsLive != 0 {
		t.Fatalf("lifecycle imbalance: %+v", st)
	}
}

// TestECNAndOverflowClean drives a slow, shallow, ECN-marking downlink into
// both CE marking and drop-tail overflow with a mix of ECT and non-ECT
// traffic; none of it is an invariant violation.
func TestECNAndOverflowClean(t *testing.T) {
	s, topo, src, _, o := fabric(t, netem.LinkConfig{
		RateBps: 1e9, Delay: 2 * sim.Microsecond, QueueCap: 4, ECNK: 2,
	})
	for i := 0; i < 200; i++ {
		src.Send(dataPacket(topo.Pool(), 0, 1, i%2 == 0))
	}
	s.Run()
	down := topo.LinkByName("S->h1#0")
	if down.Stats().ECNMarks == 0 || down.Stats().Drops == 0 {
		t.Fatalf("burst did not exercise marking+overflow: %+v", down.Stats())
	}
	if err := o.Check(s.Pending()); err != nil {
		t.Fatalf("legitimate marks/drops flagged: %v", err)
	}
}

// TestLinkFailureClean takes a link down mid-run (flushing its queue) and
// back up; administrative drops are not violations.
func TestLinkFailureClean(t *testing.T) {
	s, topo, src, _, o := fabric(t, netem.LinkConfig{
		RateBps: 1e9, Delay: 2 * sim.Microsecond, QueueCap: 16,
	})
	down := topo.LinkByName("S->h1#0")
	for i := 0; i < 30; i++ {
		src.Send(dataPacket(topo.Pool(), 0, 1, false))
	}
	s.After(5*sim.Microsecond, func() { down.SetUp(false) })
	s.After(40*sim.Microsecond, func() { down.SetUp(true) })
	s.Run()
	if down.Stats().DownDrops == 0 {
		t.Fatal("failure window dropped nothing; timing off")
	}
	if err := o.Check(s.Pending()); err != nil {
		t.Fatalf("administrative drops flagged: %v", err)
	}
}

// --- TCP stream oracle over a lossy pipe ---

// tcpLoop wires a pooled sender and receiver, under flow handles 2 (data)
// and 3 (ACKs), over delayed pipes; dropEvery discards (and correctly
// releases) every n-th forward data segment to force retransmissions.
func tcpLoop(s *sim.Simulator, pool *packet.Pool, dropEvery int) (*tcp.Sender, *tcp.Receiver) {
	cfg := tcp.DefaultConfig()
	cfg.Pool = pool
	flow := packet.FiveTuple{Src: 1, Dst: 2, SrcPort: 100, DstPort: 200, Proto: packet.ProtoTCP}
	var snd *tcp.Sender
	var rcv *tcp.Receiver
	n := 0
	snd = tcp.NewSender(s, cfg, flow, func(pkt *packet.Packet) {
		n++
		if dropEvery > 0 && n%dropEvery == 0 {
			pool.Put(pkt) // the drop releases, as a real link does
			return
		}
		s.After(20*sim.Microsecond, func() { rcv.HandleData(pkt) })
	})
	rcv = tcp.NewReceiver(s, cfg, flow, func(pkt *packet.Packet) {
		s.After(20*sim.Microsecond, func() { snd.HandleAck(pkt) })
	})
	snd.SetFlowHandle(2)
	rcv.SetFlowHandle(3)
	return snd, rcv
}

func TestTCPStreamCleanAcrossRetransmits(t *testing.T) {
	s := sim.New(1)
	pool := &packet.Pool{}
	o := oracle.New()
	pool.SetObserver(o)
	s.SetEventHook(o.AfterEvent)

	snd, rcv := tcpLoop(s, pool, 7)
	done := false
	snd.StartJob(300_000, func(sim.Time) { done = true })
	s.RunUntil(10 * sim.Second)
	if !done || rcv.RcvNxt() != 300_000 {
		t.Fatalf("transfer incomplete: done=%v rcvNxt=%d", done, rcv.RcvNxt())
	}
	if snd.Stats().Retransmits == 0 {
		t.Fatal("lossy pipe caused no retransmits; test exercises nothing")
	}
	if err := o.Check(s.Pending()); err != nil {
		t.Fatalf("clean lossy transfer flagged: %v", err)
	}
}

// --- Mutation smoke tests: one seeded bug per invariant class ---

// TestMutationConservationLeak retains a delivered packet (a skipped pool
// release) and expects the drain-time leak check to fire.
func TestMutationConservationLeak(t *testing.T) {
	s, topo, src, dst, o := fabric(t, netem.LinkConfig{})
	var stolen *packet.Packet
	dst.Deliver = func(pkt *packet.Packet) {
		if stolen == nil {
			stolen = pkt // the bug: keep it, never Put it
			return
		}
		topo.Pool().Put(pkt)
	}
	for i := 0; i < 5; i++ {
		src.Send(dataPacket(topo.Pool(), 0, 1, false))
	}
	s.Run()
	if stolen == nil {
		t.Fatal("no packet delivered")
	}
	wantViolation(t, o, s.Pending(), "conservation")
}

// TestMutationDoubleRelease releases the same packet twice.
func TestMutationDoubleRelease(t *testing.T) {
	o := oracle.New()
	pool := &packet.Pool{}
	pool.SetObserver(o)
	pkt := pool.Get()
	pool.Put(pkt)
	pool.Put(pkt)
	wantViolation(t, o, 1, "pool")
}

// TestMutationUseAfterRelease sends a packet into the fabric after releasing
// it to the pool.
func TestMutationUseAfterRelease(t *testing.T) {
	s, topo, src, _, o := fabric(t, netem.LinkConfig{})
	pkt := dataPacket(topo.Pool(), 0, 1, false)
	topo.Pool().Put(pkt)
	src.Send(pkt) // the bug: the sender kept a reference across the Put
	s.Run()
	wantViolation(t, o, 1, "pool")
}

// TestMutationForgedStreamDelivery feeds a receiver a segment its sender
// never emitted; the stream oracle must reject the delivery.
func TestMutationForgedStreamDelivery(t *testing.T) {
	s := sim.New(1)
	pool := &packet.Pool{}
	o := oracle.New()
	pool.SetObserver(o)

	cfg := tcp.DefaultConfig()
	cfg.Pool = pool
	flow := packet.FiveTuple{Src: 1, Dst: 2, SrcPort: 100, DstPort: 200, Proto: packet.ProtoTCP}
	rcv := tcp.NewReceiver(s, cfg, flow, func(pkt *packet.Packet) { pool.Put(pkt) })

	forged := pool.Get()
	forged.Kind = packet.KindData
	forged.Inner, forged.Flow = flow, 2
	forged.Seq = 0
	forged.PayloadLen = 1000
	rcv.HandleData(forged)
	if rcv.RcvNxt() != 1000 {
		t.Fatalf("receiver ignored the forged segment: rcvNxt=%d", rcv.RcvNxt())
	}
	wantViolation(t, o, 1, "tcp-stream")
}

// TestMutationStreamGapAndOverDelivery seeds the two sender-side stream
// bugs: emitting past a gap and delivering beyond sent coverage.
func TestMutationStreamGapAndOverDelivery(t *testing.T) {
	o := oracle.New()
	flow := packet.FiveTuple{Src: 1, Dst: 2, SrcPort: 9, DstPort: 10, Proto: packet.ProtoTCP}
	o.StreamSent(flow, 2, 0, 1000, false)
	o.StreamSent(flow, 2, 2000, 3000, false) // gap [1000,2000) never sent
	o.StreamDeliver(flow, 2, 0, 5000)        // beyond even the gapped coverage
	wantViolation(t, o, 1, "tcp-stream")
	if o.Count() < 2 {
		t.Fatalf("want both gap and over-delivery flagged, got %v", o.Violations())
	}
}

// TestMutationQueueECN seeds the queue/ECN bugs a broken link could exhibit:
// accepting past capacity, marking below threshold, and drop-tail below
// capacity.
func TestMutationQueueECN(t *testing.T) {
	o := oracle.New()
	pkt := &packet.Packet{Kind: packet.KindData, InnerECT: true}
	o.LinkEnqueue(1, pkt, 8, 8, 0, false) // at capacity, should have dropped
	wantViolation(t, o, 1, "queue-ecn")

	o = oracle.New()
	o.LinkEnqueue(1, pkt, 0, 8, 4, true) // marked below threshold
	wantViolation(t, o, 1, "queue-ecn")

	o = oracle.New()
	o.LinkEnqueue(1, pkt, 5, 8, 4, false) // at threshold but unmarked
	wantViolation(t, o, 1, "queue-ecn")

	o = oracle.New()
	o.LinkDrop(1, pkt, packet.DropQueueFull, 3, 8) // drop-tail below capacity
	wantViolation(t, o, 1, "queue-ecn")
}

// TestMutationMisroutedPacket injects a packet addressed to h0 onto the
// downlink toward h1 — the wrong egress, as a broken routing table would.
func TestMutationMisroutedPacket(t *testing.T) {
	s, topo, _, _, o := fabric(t, netem.LinkConfig{})
	wrongDown := topo.LinkByName("S->h1#0")
	wrongDown.Enqueue(dataPacket(topo.Pool(), 1, 0, false)) // destined h0
	s.Run()
	wantViolation(t, o, s.Pending(), "routing")
}

// TestMutationDownLinkDelivery seeds a forwarding-over-down-link bug at the
// hook level (the real datapath cannot express it without the bug).
func TestMutationDownLinkDelivery(t *testing.T) {
	o := oracle.New()
	pkt := &packet.Packet{Kind: packet.KindData}
	o.LinkSetUp(3, false)
	o.LinkDeliver(3, pkt)
	wantViolation(t, o, 1, "routing")

	// Back up: delivery is clean again.
	o = oracle.New()
	o.LinkSetUp(3, false)
	o.LinkSetUp(3, true)
	o.LinkDeliver(3, pkt)
	if err := o.Check(1); err != nil {
		t.Fatalf("delivery over re-raised link flagged: %v", err)
	}
}

// TestMutationFlowletPortChange seeds the flowlet bug: one flowlet of one
// flow steered to two different outer ports.
func TestMutationFlowletPortChange(t *testing.T) {
	o := oracle.New()
	flow := packet.FiveTuple{Src: 1, Dst: 2, SrcPort: 100, DstPort: 200, Proto: packet.ProtoTCP}
	o.FlowletPick(flow, 2, 7, 40000)
	o.FlowletPick(flow, 2, 7, 40000) // same port: fine
	o.FlowletPick(flow, 2, 8, 40001) // new flowlet may move: fine
	if err := o.Check(1); err != nil {
		t.Fatalf("consistent flowlets flagged: %v", err)
	}
	o.FlowletPick(flow, 2, 8, 40002) // the bug: mid-flowlet port change
	wantViolation(t, o, 1, "flowlet")
}

// TestMutationForgedStreamDeliveryWithHandle forges a segment of one flow
// that carries another flow's handle, whose sender has sent the bytes: the
// handle must not launder it. The oracle flags the handle and judges the
// delivery on the forged flow's own stream, which sent nothing.
func TestMutationForgedStreamDeliveryWithHandle(t *testing.T) {
	s := sim.New(1)
	pool := &packet.Pool{}
	o := oracle.New()
	pool.SetObserver(o)

	cfg := tcp.DefaultConfig()
	cfg.Pool = pool
	real := packet.FiveTuple{Src: 1, Dst: 2, SrcPort: 100, DstPort: 200, Proto: packet.ProtoTCP}
	forgedFlow := packet.FiveTuple{Src: 3, Dst: 2, SrcPort: 101, DstPort: 200, Proto: packet.ProtoTCP}
	const h packet.FlowHandle = 2
	o.StreamSent(real, h, 0, 1000, false) // the real sender's bytes, under h
	rcv := tcp.NewReceiver(s, cfg, forgedFlow, func(pkt *packet.Packet) { pool.Put(pkt) })

	forged := pool.Get()
	forged.Kind = packet.KindData
	forged.Inner = forgedFlow
	forged.Flow = h
	forged.PayloadLen = 1000
	rcv.HandleData(forged)
	wantViolation(t, o, 1, "handle")
	wantViolation(t, o, 1, "tcp-stream")
}

// TestHandledFlowletsAndStreamsClean runs a stream and its flowlets through
// handles: nothing is flagged.
func TestHandledFlowletsAndStreamsClean(t *testing.T) {
	o := oracle.New()
	flow := packet.FiveTuple{Src: 1, Dst: 2, SrcPort: 100, DstPort: 200, Proto: packet.ProtoTCP}
	o.StreamSent(flow, 2, 0, 1000, false)
	o.StreamSent(flow, 2, 1000, 2000, false)
	o.StreamDeliver(flow, 2, 0, 2000)
	o.FlowletPick(flow, 2, 0, 40000)
	o.FlowletPick(flow, 2, 0, 40000)
	o.FlowletPick(flow, 2, 1, 40001)
	if err := o.Check(1); err != nil {
		t.Fatalf("clean handled flow flagged: %v", err)
	}
	if st := o.Stats(); st.Streams != 1 || st.Flowlets != 2 {
		t.Fatalf("stats %+v, want 1 stream and 2 flowlets", st)
	}
}

// TestUnhandledCallsFlagged: a stream and a flowlet observed without a
// handle are each a handle violation.
func TestUnhandledCallsFlagged(t *testing.T) {
	flow := packet.FiveTuple{Src: 1, Dst: 2, SrcPort: 100, DstPort: 200, Proto: packet.ProtoTCP}
	for name, call := range map[string]func(*oracle.Oracle){
		"stream send":  func(o *oracle.Oracle) { o.StreamSent(flow, 0, 0, 1000, false) },
		"flowlet pick": func(o *oracle.Oracle) { o.FlowletPick(flow, 0, 0, 40000) },
	} {
		o := oracle.New()
		call(o)
		wantViolation(t, o, 1, "handle")
		if v := o.Violations(); o.Count() != 1 || !strings.Contains(v[0].Msg, name) {
			t.Errorf("%s without a handle: violations %v, want one naming it", name, v)
		}
	}
}

// TestMutationHandleFlowletPortChange seeds the flowlet bug through a
// handle, then a handle reused for a second tuple, then a flowlet ID going
// back: each is flagged.
func TestMutationHandleFlowletPortChange(t *testing.T) {
	flow := packet.FiveTuple{Src: 1, Dst: 2, SrcPort: 100, DstPort: 200, Proto: packet.ProtoTCP}
	o := oracle.New()
	o.FlowletPick(flow, 4, 7, 40000)
	o.FlowletPick(flow, 4, 7, 40001) // mid-flowlet port change
	wantViolation(t, o, 1, "flowlet")

	o = oracle.New()
	o.FlowletPick(flow, 4, 7, 40000)
	o.FlowletPick(flow.Reverse(), 4, 7, 40000) // h names flow, not its reverse
	wantViolation(t, o, 1, "handle")

	o = oracle.New()
	o.FlowletPick(flow, 4, 7, 40000)
	o.FlowletPick(flow, 4, 6, 40000) // flowlet IDs never go back
	wantViolation(t, o, 1, "flowlet")
}

// TestViolationCapAndErr checks reporting: the recorded list is capped but
// the count keeps going, and Err names the first violation.
func TestViolationCapAndErr(t *testing.T) {
	o := oracle.New()
	pkt := &packet.Packet{}
	for i := 0; i < 100; i++ {
		o.LinkDrop(1, pkt, packet.DropQueueFull, 0, 8)
	}
	if len(o.Violations()) != 64 {
		t.Fatalf("recorded %d violations, want cap of 64", len(o.Violations()))
	}
	if o.Count() != 100 {
		t.Fatalf("counted %d violations, want 100", o.Count())
	}
	err := o.Err()
	if err == nil || !strings.Contains(err.Error(), "100 violation(s)") {
		t.Fatalf("Err() = %v", err)
	}
}

// TestDisabledOracleZeroAllocs is the hook-overhead guard: with the oracle
// package compiled in but no observer installed, the forwarding hot path
// must still run allocation-free (the sim/netem hot-path benches assert the
// same; this keeps the guarantee pinned next to the oracle itself).
func TestDisabledOracleZeroAllocs(t *testing.T) {
	s := sim.New(1)
	topo := netem.NewTopology(s)
	sw := topo.AddSwitch("S")
	cfg := netem.LinkConfig{RateBps: 40e9, Delay: 2 * sim.Microsecond}
	src := topo.AddHost("h0", sw, cfg, cfg)
	topo.AddHost("h1", sw, cfg, cfg)
	topo.ComputeRoutes()
	_ = oracle.New() // compiled in, not installed

	send := func() {
		src.Send(dataPacket(topo.Pool(), 0, 1, false))
		s.Run()
	}
	send() // warm pools and event free list
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("hot path with disabled oracle: %v allocs/op, want 0", allocs)
	}
}

// TestConnConsistencyClean exercises every legal move of the opt-in
// conn-consistency invariant: staying put across churn, moving after the
// pinned port is withdrawn, fallback picks during a full withdrawal, and
// remove-then-readd churn that must not be mistaken for a violation.
func TestConnConsistencyClean(t *testing.T) {
	o := oracle.New()
	o.RequireConnConsistency()
	flow := packet.FiveTuple{Src: 1, Dst: 2, SrcPort: 100, DstPort: 200, Proto: packet.ProtoTCP}

	// Pre-discovery fallback pick, then install containing a different port.
	o.FlowletPick(flow, 2, 1, 33000)
	o.PolicyPaths(1, 2, []uint16{40000, 40001})
	// Moving off the fallback port is legal: it was never installed.
	o.FlowletPick(flow, 2, 2, 40000)
	// Staying on the pick across an install refresh is always legal.
	o.PolicyPaths(1, 2, []uint16{40000, 40001})
	o.FlowletPick(flow, 2, 3, 40000)
	// Remove the pinned port: moving is now legal.
	o.PolicyPaths(1, 2, []uint16{40001, 40002})
	o.FlowletPick(flow, 2, 4, 40001)
	// Remove-then-readd the pinned port: a later move is still legal,
	// because 40001 was absent after the pick was made.
	o.PolicyPaths(1, 2, []uint16{40002})
	o.PolicyPaths(1, 2, []uint16{40001, 40002})
	o.FlowletPick(flow, 2, 5, 40002)
	// Full withdrawal: a fallback pick outside the (empty) set, then
	// re-install and return to an installed port.
	o.PolicyPaths(1, 2, nil)
	o.FlowletPick(flow, 2, 6, 33017)
	o.PolicyPaths(1, 2, []uint16{40000, 40001})
	o.FlowletPick(flow, 2, 7, 40000)

	if err := o.Check(1); err != nil {
		t.Fatalf("clean conn-consistency sequence flagged: %v", err)
	}
}

// TestMutationConnConsistency seeds the stateless-scheme bug the invariant
// exists to catch: a connection moved to a different installed port while
// its current port never left the installed set.
func TestMutationConnConsistency(t *testing.T) {
	o := oracle.New()
	o.RequireConnConsistency()
	flow := packet.FiveTuple{Src: 1, Dst: 2, SrcPort: 100, DstPort: 200, Proto: packet.ProtoTCP}
	o.PolicyPaths(1, 2, []uint16{40000, 40001})
	o.FlowletPick(flow, 2, 1, 40000)
	o.FlowletPick(flow, 2, 2, 40001) // the bug: 40000 is still installed
	wantViolation(t, o, 1, "conn-consistency")
}

// TestConnConsistencyOffByDefault runs the same seeded violation without
// arming the invariant: stateful schemes may legally rebalance across
// flowlets, so nothing must be flagged.
func TestConnConsistencyOffByDefault(t *testing.T) {
	o := oracle.New()
	flow := packet.FiveTuple{Src: 1, Dst: 2, SrcPort: 100, DstPort: 200, Proto: packet.ProtoTCP}
	o.PolicyPaths(1, 2, []uint16{40000, 40001})
	o.FlowletPick(flow, 2, 1, 40000)
	o.FlowletPick(flow, 2, 2, 40001)
	if err := o.Check(1); err != nil {
		t.Fatalf("unarmed oracle flagged a flowlet-level rebalance: %v", err)
	}
}

// TestMutationConnConsistencyReaddLaundering pins the version bookkeeping:
// re-adding a port that was never removed since the pick must not make a
// move off it legal, while a genuine remove-then-readd must.
func TestMutationConnConsistencyReaddLaundering(t *testing.T) {
	o := oracle.New()
	o.RequireConnConsistency()
	flow := packet.FiveTuple{Src: 1, Dst: 2, SrcPort: 100, DstPort: 200, Proto: packet.ProtoTCP}
	o.PolicyPaths(1, 2, []uint16{40000, 40001})
	o.FlowletPick(flow, 2, 1, 40000)
	// Install refreshes that keep 40000 present do not reset its age.
	o.PolicyPaths(1, 2, []uint16{40000, 40002})
	o.PolicyPaths(1, 2, []uint16{40000, 40003})
	o.FlowletPick(flow, 2, 2, 40003)
	wantViolation(t, o, 1, "conn-consistency")
}
