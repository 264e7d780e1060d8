package tcp

import (
	"testing"
	"unsafe"

	"clove/internal/packet"
	"clove/internal/sim"
)

// ackRig is a pooled sender whose segments go straight back to the pool;
// ack acknowledges everything sent so far.
func ackRig() (s *sim.Simulator, snd *Sender, ack func()) {
	pool := &packet.Pool{}
	cfg := DefaultConfig()
	cfg.Pool = pool
	s = sim.New(1)
	flow := packet.FiveTuple{Src: 1, Dst: 2, SrcPort: 100, DstPort: 200, Proto: packet.ProtoTCP}
	snd = NewSender(s, cfg, flow, pool.Put)
	ack = func() {
		p := pool.Get()
		p.Kind = packet.KindData
		p.Inner = flow.Reverse()
		p.Flags = packet.FlagACK
		p.Ack = snd.sndNxt
		snd.HandleAck(p)
	}
	return s, snd, ack
}

// TestSenderJobsFIFO: jobs complete in the order they were queued, each
// when the ACK covering its last byte arrives, with its FCT measured from
// its own StartJob; a job started from a completion callback joins the
// queue behind the jobs still pending.
func TestSenderJobsFIFO(t *testing.T) {
	s, snd, ack := ackRig()
	var order []int
	var fcts []sim.Time
	finish := func(id int) func(sim.Time) {
		return func(fct sim.Time) { order = append(order, id); fcts = append(fcts, fct) }
	}
	snd.StartJob(1000, finish(1))
	snd.StartJob(1000, func(fct sim.Time) {
		finish(2)(fct)
		snd.StartJob(1000, finish(4))
	})
	s.RunUntil(sim.Millisecond)
	snd.StartJob(1000, finish(3))
	s.RunUntil(3 * sim.Millisecond)
	ack() // covers jobs 1–3; job 4 starts from job 2's callback
	if want := []int{1, 2, 3}; len(order) != len(want) || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("completion order %v, want %v", order, want)
	}
	if fcts[0] != 3*sim.Millisecond || fcts[1] != 3*sim.Millisecond || fcts[2] != 2*sim.Millisecond {
		t.Fatalf("FCTs %v, want [3ms 3ms 2ms]", fcts)
	}
	s.RunUntil(4 * sim.Millisecond)
	ack()
	if len(order) != 4 || order[3] != 4 || fcts[3] != sim.Millisecond {
		t.Fatalf("after the second ACK: order %v FCTs %v, want job 4 done after 1ms", order, fcts)
	}
	if !snd.Idle() {
		t.Fatal("sender not idle with every job acknowledged")
	}
}

// idleJob starts a one-segment job on an idle sender and acknowledges it.
func idleJob(snd *Sender, ack func(), done func(sim.Time)) func() {
	return func() {
		snd.StartJob(1000, done)
		ack()
	}
}

// TestSenderIdleJobAllocatesNothing: a job on an idle connection reuses the
// queue's array, so start, send, ACK and completion allocate nothing.
func TestSenderIdleJobAllocatesNothing(t *testing.T) {
	_, snd, ack := ackRig()
	n := 0
	done := func(sim.Time) { n++ }
	if allocs := testing.AllocsPerRun(100, idleJob(snd, ack, done)); allocs != 0 {
		t.Fatalf("allocs per job on an idle connection = %v, want 0", allocs)
	}
	if n != 101 {
		t.Fatalf("%d of 101 jobs completed", n)
	}
}

// BenchmarkHotPathSenderIdleJob prices one job on an idle persistent
// connection (queue, send, ACK, completion) and fails on any allocation;
// the CI bench-smoke job runs it.
func BenchmarkHotPathSenderIdleJob(b *testing.B) {
	_, snd, ack := ackRig()
	step := idleJob(snd, ack, func(sim.Time) {})
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		b.Fatalf("allocs per job on an idle connection = %v, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestPairSize pins a connection's transport record at or under 416 bytes
// (the 416-byte size class): a k16 unit opens ≈16k of them, and a copied
// Config or a padded flag would each push it to the next class.
func TestPairSize(t *testing.T) {
	if n := unsafe.Sizeof(Pair{}); n > 416 {
		t.Fatalf("unsafe.Sizeof(Pair{}) = %d, want <= 416", n)
	}
}
