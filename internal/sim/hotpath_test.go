package sim

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// chainState drives a self-rescheduling event chain through the static
// trampoline below — the allocation-free scheduling idiom the network model
// uses on its per-packet paths.
type chainState struct {
	s     *Simulator
	left  int
	fired int
}

func chainStep(a, _ any) {
	st := a.(*chainState)
	st.fired++
	st.left--
	if st.left > 0 {
		st.s.AfterCall(Microsecond, chainStep, st, nil)
	}
}

func noopCall(_, _ any) {}

// runChain schedules and drains a chain of n events.
func runChain(s *Simulator, st *chainState, n int) {
	st.left = n
	s.AfterCall(0, chainStep, st, nil)
	s.Run()
}

// TestHotPathChainZeroAllocs is the core hot-path assertion: once the free
// list is warm, scheduling and firing events through AtCall/AfterCall
// allocates nothing, and neither does At with a prebuilt closure (a func
// value boxes into the callFunc operand without allocating).
func TestHotPathChainZeroAllocs(t *testing.T) {
	s := New(1)
	st := &chainState{s: s}
	runChain(s, st, 100) // warm the free list and heap backing array

	allocs := testing.AllocsPerRun(50, func() {
		runChain(s, st, 100)
	})
	if allocs != 0 {
		t.Fatalf("allocs per 100-event chain = %v, want 0", allocs)
	}

	left := 0
	var step func()
	step = func() {
		if left--; left > 0 {
			s.At(s.Now()+Microsecond, step)
		}
	}
	runClosures := func() {
		left = 100
		s.At(s.Now(), step)
		s.Run()
	}
	runClosures()
	if allocs := testing.AllocsPerRun(50, runClosures); allocs != 0 {
		t.Fatalf("allocs per 100-event At chain = %v, want 0", allocs)
	}
	if left != 0 {
		t.Fatalf("At chain stopped with %d events left", left)
	}
}

// BenchmarkHotPathEventChain measures ns/event on the pooled scheduling path
// and fails on any alloc regression (the CI bench-smoke job runs it).
func BenchmarkHotPathEventChain(b *testing.B) {
	s := New(1)
	st := &chainState{s: s}
	runChain(s, st, 100)
	if allocs := testing.AllocsPerRun(20, func() { runChain(s, st, 100) }); allocs != 0 {
		b.Fatalf("allocs per 100-event chain = %v, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runChain(s, st, 100)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*100)/b.Elapsed().Seconds(), "events/sec")
}

// steadyOffsets is BenchmarkHeapSteady64's fixed pseudo-random table of
// reschedule offsets, 1 ns to 1 µs.
var steadyOffsets = func() (t [256]Time) {
	rng := rand.New(rand.NewSource(1))
	for i := range t {
		t[i] = 1 + Time(rng.Intn(int(Microsecond)))
	}
	return t
}()

// steadyState is shared by every event of BenchmarkHeapSteady64; next walks
// steadyOffsets.
type steadyState struct {
	s    *Simulator
	next uint8
}

func steadyStep(a, _ any) {
	st := a.(*steadyState)
	st.next++
	st.s.AfterCall(steadyOffsets[st.next], steadyStep, st, nil)
}

// BenchmarkHeapSteady64 measures ns/event at a realistic queue depth: 64
// events stay pending, and each fired event reschedules itself at an offset
// from a fixed pseudo-random table, so every pop sifts through a three-level
// 4-ary heap. (BenchmarkHotPathEventChain keeps one event pending and never
// sifts.) It fails on any allocation.
func BenchmarkHeapSteady64(b *testing.B) {
	s := New(1)
	st := &steadyState{s: s}
	for i := 0; i < 64; i++ {
		s.AtCall(steadyOffsets[i], steadyStep, st, nil)
	}
	s.RunForEvents(10_000) // warm the slab and the heap
	if allocs := testing.AllocsPerRun(20, func() { s.RunForEvents(1000) }); allocs != 0 {
		b.Fatalf("allocs per 1000 events = %v, want 0", allocs)
	}
	if s.Pending() != 64 {
		b.Fatalf("Pending() = %d, want 64", s.Pending())
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.RunForEvents(uint64(b.N))
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
}

// laneSteady is BenchmarkHotPathLaneSteady's lane: each of its events
// reschedules itself on the lane, so the lane always holds as many events as
// were started on it.
type laneSteady struct {
	lane *Lane
}

func laneStep(a, _ any) {
	ls := a.(*laneSteady)
	ls.lane.Call(laneStep, ls, nil)
}

// BenchmarkHotPathLaneSteady is BenchmarkHeapSteady64 with a lane beside the
// heap, the shape of a web-search run's queue: 64 heap events reschedule at
// pseudo-random offsets while 64 events, started at staggered times,
// circulate through a 500 ns lane, so about half the fires come from each.
// It reports ns/event and fails on any allocation.
func BenchmarkHotPathLaneSteady(b *testing.B) {
	s := New(1)
	st := &steadyState{s: s}
	ls := &laneSteady{lane: s.Lane(500 * Nanosecond)}
	for i := 0; i < 64; i++ {
		s.AtCall(steadyOffsets[i], steadyStep, st, nil)
		s.AtCall(steadyOffsets[64+i], laneStep, ls, nil)
	}
	s.RunForEvents(10_000) // warm the slab, the heap and the lane's ring
	if allocs := testing.AllocsPerRun(20, func() { s.RunForEvents(1000) }); allocs != 0 {
		b.Fatalf("allocs per 1000 events = %v, want 0", allocs)
	}
	if s.Pending() != 128 || s.laned != 64 {
		b.Fatalf("Pending() = %d with %d in the lane, want 128 and 64", s.Pending(), s.laned)
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.RunForEvents(uint64(b.N))
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
}

// TestEventIs64Bytes pins the slab entry at one cache line: a lane keeps its
// events' keys in its own ring, so lanes add no field to event.
func TestEventIs64Bytes(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 64 {
		t.Fatalf("unsafe.Sizeof(event{}) = %d, want 64", n)
	}
}

// TestMillionOneShotEventsRecycle runs one million chained one-shot events
// and checks that (a) nothing stays pending, (b) the free list stays at the
// peak-pending size — a couple of structs, not a million — and (c) recycled
// events are fully cleared so the free list cannot pin dead closures or
// operands against the GC.
func TestMillionOneShotEventsRecycle(t *testing.T) {
	s := New(1)
	st := &chainState{s: s}
	const n = 1_000_000
	runChain(s, st, n)

	if st.fired != n {
		t.Fatalf("fired %d events, want %d", st.fired, n)
	}
	if got := s.Pending(); got != 0 {
		t.Errorf("Pending() = %d after run, want 0", got)
	}
	if free := s.FreeEvents(); free > 4 {
		t.Errorf("FreeEvents() = %d after chained run, want a handful (peak pending was 1)", free)
	}
	if len(s.slab) > 4 {
		t.Errorf("slab grew to %d slots on a chained run, want a handful (peak pending was 1)", len(s.slab))
	}
	for i, slot := range s.free {
		ev := &s.slab[slot]
		if ev.call != nil || ev.a != nil || ev.b != nil {
			t.Fatalf("free[%d] (slot %d) not cleared: call-set=%t a=%v b=%v",
				i, slot, ev.call != nil, ev.a, ev.b)
		}
		if ev.heapIdx >= 0 {
			t.Fatalf("free[%d] (slot %d) still claims heap position %d", i, slot, ev.heapIdx)
		}
	}
}

// TestTickerZeroAllocsPerTick pins the periodic-timer guarantee: once a
// ticker is created (one state struct + one cancel closure), every tick —
// fire, callback, reschedule — is allocation-free. The pre-slab Ticker
// allocated a fresh closure chain per tick, which showed up as steady churn
// under periodic DRE relays and probe rounds.
func TestTickerZeroAllocsPerTick(t *testing.T) {
	s := New(1)
	ticks := 0
	cancel := s.Ticker(Microsecond, func() { ticks++ })
	defer cancel()
	s.RunUntil(s.Now() + 10*Microsecond) // warm slab, heap, free list

	allocs := testing.AllocsPerRun(50, func() {
		s.RunUntil(s.Now() + 100*Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("allocs per 100-tick window = %v, want 0", allocs)
	}
	if ticks < 100 {
		t.Fatalf("ticker fired %d times, want >= 100", ticks)
	}
}

// TestTickerCancelSemantics pins the cancellation contract the network model
// relies on: cancelling inside the callback stops future ticks immediately
// (no reschedule happens), while cancelling between ticks leaves the
// already-scheduled next event to fire once as a no-op rather than removing
// it — exactly the pre-slab closure ticker's behavior, so event sequence
// numbering is unchanged by the reimplementation.
func TestTickerCancelSemantics(t *testing.T) {
	// Cancel between ticks: the next event stays queued and no-ops.
	s := New(1)
	ticks := 0
	cancel := s.Ticker(10, func() { ticks++ })
	s.RunUntil(35) // ticks at 10, 20, 30; tick 4 pending at 40
	cancel()
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending() = %d after cancel, want the one residual no-op", got)
	}
	s.RunUntil(1000)
	if ticks != 3 {
		t.Errorf("ticks = %d after cancel, want 3", ticks)
	}
	if got := s.Pending(); got != 0 {
		t.Errorf("Pending() = %d at end, want 0", got)
	}

	// Cancel inside the callback: no reschedule, queue drains at once.
	s2 := New(1)
	ticks2 := 0
	var cancel2 func()
	cancel2 = s2.Ticker(10, func() {
		ticks2++
		if ticks2 == 3 {
			cancel2()
		}
	})
	s2.RunUntil(1000)
	if ticks2 != 3 {
		t.Errorf("ticks2 = %d after in-callback cancel, want 3", ticks2)
	}
	if got := s2.Pending(); got != 0 {
		t.Errorf("Pending() = %d after in-callback cancel, want 0", got)
	}
}

// TestCancelStaleIDAfterFire verifies a fired event's ID goes stale: it can
// neither report a successful cancel nor touch the event struct's next
// incarnation.
func TestCancelStaleIDAfterFire(t *testing.T) {
	s := New(1)
	ran := 0
	id := s.AtCall(10, func(a, _ any) { *(a.(*int))++ }, &ran, nil)
	s.Run()
	if ran != 1 {
		t.Fatalf("event ran %d times, want 1", ran)
	}
	if s.Cancel(id) {
		t.Error("Cancel succeeded on an already-fired event")
	}

	// The slot is now on the free list; the next schedule reuses it.
	ran2 := 0
	id2 := s.AtCall(20, func(a, _ any) { *(a.(*int))++ }, &ran2, nil)
	if id2.slot != id.slot {
		t.Fatalf("expected the recycled slot to be reused (free list size 1)")
	}
	if s.Cancel(id) {
		t.Error("stale ID cancelled the struct's next incarnation")
	}
	s.Run()
	if ran2 != 1 {
		t.Errorf("second incarnation ran %d times, want 1 (stale ID must not affect it)", ran2)
	}
}

// TestCancelStaleIDAfterCancel is the same guarantee for cancellation: a
// cancelled event's ID cannot cancel or suppress the recycled struct.
func TestCancelStaleIDAfterCancel(t *testing.T) {
	s := New(1)
	id := s.AtCall(10, func(_, _ any) { t.Error("cancelled event fired") }, nil, nil)
	if !s.Cancel(id) {
		t.Fatal("first Cancel failed")
	}
	if s.Cancel(id) {
		t.Error("second Cancel of the same ID succeeded")
	}

	ran := 0
	id2 := s.AtCall(20, func(a, _ any) { *(a.(*int))++ }, &ran, nil)
	if id2.slot != id.slot {
		t.Fatalf("expected slot reuse after cancel")
	}
	if id2.seq == id.seq {
		t.Fatal("incarnation stamp not advanced on recycle")
	}
	if s.Cancel(id) {
		t.Error("stale ID cancelled the recycled event")
	}
	s.Run()
	if ran != 1 {
		t.Errorf("recycled event ran %d times, want 1", ran)
	}
}

// TestStressMixedScheduleCancel drives a randomized mix of At, After,
// AtCall, and Cancel against a reference model and requires the fired
// sequence to match the model exactly — order included. Heavy cancellation
// keeps the free list churning, so every firing exercises recycled structs.
func TestStressMixedScheduleCancel(t *testing.T) {
	s := New(7)
	rng := rand.New(rand.NewSource(42))

	type entry struct {
		id        EventID
		at        Time
		seq       int // scheduling order, the FIFO tiebreak
		payload   int
		cancelled bool
	}
	var entries []*entry
	var fired []int
	note := func(a, _ any) { fired = append(fired, a.(*entry).payload) }

	const ops = 5000
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(10); {
		case r < 3: // closure form
			e := &entry{at: Time(rng.Intn(1000)), seq: op, payload: op}
			e.id = s.At(e.at, func() { fired = append(fired, e.payload) })
			entries = append(entries, e)
		case r < 6: // pooled form
			e := &entry{at: Time(rng.Intn(1000)), seq: op, payload: op}
			e.id = s.AtCall(e.at, note, e, nil)
			entries = append(entries, e)
		default: // cancel a random live entry
			live := make([]*entry, 0, len(entries))
			for _, e := range entries {
				if !e.cancelled {
					live = append(live, e)
				}
			}
			if len(live) == 0 {
				continue
			}
			e := live[rng.Intn(len(live))]
			if !s.Cancel(e.id) {
				t.Fatalf("Cancel of live event %d failed", e.payload)
			}
			e.cancelled = true
			if s.Cancel(e.id) {
				t.Fatalf("double Cancel of event %d succeeded", e.payload)
			}
		}
	}
	s.Run()

	var want []int
	alive := make([]*entry, 0, len(entries))
	for _, e := range entries {
		if !e.cancelled {
			alive = append(alive, e)
		}
	}
	sort.Slice(alive, func(i, j int) bool {
		if alive[i].at != alive[j].at {
			return alive[i].at < alive[j].at
		}
		return alive[i].seq < alive[j].seq
	})
	for _, e := range alive {
		want = append(want, e.payload)
	}

	if len(fired) != len(want) {
		t.Fatalf("fired %d events, model says %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("firing order diverges at %d: got %d, want %d", i, fired[i], want[i])
		}
	}
	if got := s.Pending(); got != 0 {
		t.Errorf("Pending() = %d, want 0", got)
	}
}
