package sim

import (
	"fmt"
	"math/rand"
)

// Simulator is a single-threaded discrete-event scheduler. It owns the
// virtual clock: time only advances when a run loop pops the next event.
//
// Simulator is not safe for concurrent use; the simulated network is a
// sequential program by design so that runs are reproducible.
//
// Every event is a static EventFunc plus two operands (AtCall/AfterCall),
// which does not allocate per event. At/After are the closure adapter over
// that one form: they schedule the callFunc trampoline with the closure as
// its operand.
//
// Events live in one contiguous slab ([]event) and the pending queue is a
// 4-ary implicit min-heap of slot indices (see queue.go) — no per-event
// allocation, no pointer chasing on sift, no heap.Interface dispatch — plus
// one FIFO lane per fixed delay (see lane.go) for events that need no heap.
// Fired and cancelled slots are recycled through a free list of indices, so
// the per-packet event path of the network model runs allocation-free.
type Simulator struct {
	now    Time
	slab   []event   // all event structs, addressed by slot index
	heap   []heapEnt // pending events: 4-ary min-heap keyed by (at, seq)
	lanes  []*Lane   // fixed-delay FIFOs, in creation order
	laned  int       // events pending in lanes
	free   []int32   // recycled slot indices
	nextID uint64
	rng    *rand.Rand

	processed uint64
	running   bool
	stopped   bool

	// onEvent, when non-nil, runs after every fired event's callback. It is
	// the simulator-side hook of the opt-in correctness oracle (the datapath
	// hooks travel through packet.Pool, which sim cannot import).
	onEvent func()
}

// New returns a Simulator whose random source is seeded with seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source. All randomness
// in a run must come from here to keep runs reproducible.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Processed reports how many events have fired so far.
func (s *Simulator) Processed() uint64 { return s.processed }

// Pending reports how many events are scheduled but not yet fired.
func (s *Simulator) Pending() int { return len(s.heap) + s.laned }

// FreeEvents reports the current size of the event free list (telemetry and
// leak tests). The slab never shrinks, so the free list is bounded by the
// peak number of pending events.
func (s *Simulator) FreeEvents() int { return len(s.free) }

// getSlot takes a recycled slab slot or extends the slab by one. The
// returned slot's payload fields are already cleared (putSlot clears them).
func (s *Simulator) getSlot() int32 {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		return slot
	}
	s.slab = append(s.slab, event{heapIdx: -1})
	return int32(len(s.slab) - 1)
}

// putSlot recycles a fired or cancelled event's slot. The slot's seq stays
// — it is the stamp that invalidates every outstanding EventID for this
// incarnation (the next tenant overwrites it with a fresh, never-reused
// value) — and clearing call/a/b is what keeps the slab from pinning
// dead closures or packets across the (arbitrarily long) wait until reuse.
func (s *Simulator) putSlot(slot int32) {
	ev := &s.slab[slot]
	ev.call = nil
	ev.a, ev.b = nil, nil
	ev.heapIdx = -1
	s.free = append(s.free, slot)
}

func (s *Simulator) schedule(at Time) (int32, uint64) {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	slot := s.getSlot()
	ev := &s.slab[slot]
	ev.at = at
	ev.seq = s.nextID
	s.nextID++
	s.heapPush(slot)
	return slot, ev.seq
}

// callFunc is the trampoline that runs an At/After closure.
func callFunc(a, _ any) { a.(func())() }

// At schedules fn to run at absolute time at. Scheduling in the past (before
// Now) panics: it would violate causality and always indicates a bug.
//
// Scheduling a prebuilt closure does not allocate, but building a closure
// per event does, so per-packet paths use AtCall with a static EventFunc.
func (s *Simulator) At(at Time, fn func()) EventID {
	return s.AtCall(at, callFunc, fn, nil)
}

// After schedules fn to run delay after the current time.
func (s *Simulator) After(delay Time, fn func()) EventID {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return s.At(s.now+delay, fn)
}

// AtCall schedules fn(a, b) at absolute time at without allocating: the
// event slot comes from the free list and fn is a static function value
// rather than a closure. Callers pass their receiver and payload through a
// and b (pointers box into interfaces allocation-free).
func (s *Simulator) AtCall(at Time, fn EventFunc, a, b any) EventID {
	slot, seq := s.schedule(at)
	ev := &s.slab[slot]
	ev.call = fn
	ev.a, ev.b = a, b
	return EventID{slot: slot + 1, seq: seq}
}

// AfterCall schedules fn(a, b) delay after the current time; the
// allocation-free form of After.
func (s *Simulator) AfterCall(delay Time, fn EventFunc, a, b any) EventID {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return s.AtCall(s.now+delay, fn, a, b)
}

// Cancel removes a scheduled event. Cancelling an already-fired,
// already-cancelled, or otherwise stale ID is a no-op and reports false;
// the seq stamp guarantees a stale ID can never cancel a later event that
// happens to reuse the same recycled slot.
func (s *Simulator) Cancel(id EventID) bool {
	i := int(id.slot) - 1
	if i < 0 || i >= len(s.slab) {
		return false
	}
	ev := &s.slab[i]
	if ev.seq != id.seq || ev.heapIdx < 0 {
		return false
	}
	s.heapRemove(int(ev.heapIdx))
	s.putSlot(int32(i))
	return true
}

// fire pops the earliest pending event — lane's head, or the heap root when
// lane is nil, as peek picked it — advances the clock, and runs the callback.
// The slot is recycled before the callback executes, so a callback that
// immediately reschedules reuses the slot it just vacated and the free list
// stays at the size of the peak pending set.
func (s *Simulator) fire(lane *Lane) {
	var slot int32
	if lane != nil {
		slot = lane.pop()
	} else {
		slot = s.heapPopRoot()
	}
	ev := &s.slab[slot]
	s.now = ev.at
	s.processed++
	call, a, b := ev.call, ev.a, ev.b
	s.putSlot(slot)
	call(a, b)
	if s.onEvent != nil {
		s.onEvent()
	}
}

// SetEventHook installs (or, with nil, removes) a function invoked after
// every fired event's callback returns. Used by the correctness oracle for
// per-event audits; nil (the default) costs one predictable branch per event.
func (s *Simulator) SetEventHook(fn func()) { s.onEvent = fn }

// The three run loops are written out directly rather than sharing a
// continue-predicate closure: the predicate was an indirect call per fired
// event, measurable on the hot path (the dispatch loop is otherwise just a
// peek at the earliest event and a call to fire).

// beginRun guards against reentrant dispatch; endRun is deferred by every
// run loop so a panicking callback leaves the Simulator restartable.
func (s *Simulator) beginRun() {
	if s.running {
		panic("sim: reentrant Run")
	}
	s.running = true
	s.stopped = false
}

func (s *Simulator) endRun() { s.running = false }

// Run fires events until the queue is empty or Stop is called.
func (s *Simulator) Run() {
	s.beginRun()
	defer s.endRun()
	for !s.stopped {
		lane, _, ok := s.peek()
		if !ok {
			break
		}
		s.fire(lane)
	}
}

// RunUntil fires events with timestamps <= deadline, then advances the clock
// to exactly deadline. Events scheduled after deadline remain queued.
func (s *Simulator) RunUntil(deadline Time) {
	s.beginRun()
	defer s.endRun()
	for !s.stopped {
		lane, at, ok := s.peek()
		if !ok || at > deadline {
			break
		}
		s.fire(lane)
	}
	if !s.stopped && s.now < deadline {
		s.now = deadline
	}
}

// RunForEvents fires at most n events; useful as a watchdog in tests.
func (s *Simulator) RunForEvents(n uint64) {
	s.beginRun()
	defer s.endRun()
	for fired := uint64(0); !s.stopped && fired < n; fired++ {
		lane, _, ok := s.peek()
		if !ok {
			break
		}
		s.fire(lane)
	}
}

// Stop makes the innermost Run/RunUntil return after the current event's
// callback completes. Pending events stay queued.
func (s *Simulator) Stop() { s.stopped = true }

// tickerState is the pinned per-ticker record. One struct and one cancel
// closure are allocated when the ticker is created; each tick then
// reschedules through the static tickerFire trampoline with the state as
// operand, so a running ticker (periodic DRE relays, probe rounds) costs
// zero allocations per tick.
type tickerState struct {
	s        *Simulator
	interval Time
	fn       func()
	stopped  bool
}

// tickerFire is the static trampoline for ticker events. As with the
// pre-slab closure ticker, a cancelled ticker's already-scheduled event
// still fires once as a no-op (and is not rescheduled), so cancellation
// semantics — and event sequence numbering — are unchanged.
func tickerFire(a, _ any) {
	t := a.(*tickerState)
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.s.AfterCall(t.interval, tickerFire, t, nil)
	}
}

// Ticker invokes fn every interval, starting interval from now, until the
// returned cancel function is called. fn observes the tick time via Now.
func (s *Simulator) Ticker(interval Time, fn func()) (cancel func()) {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive ticker interval %v", interval))
	}
	t := &tickerState{s: s, interval: interval, fn: fn}
	s.AfterCall(interval, tickerFire, t, nil)
	return func() { t.stopped = true }
}
