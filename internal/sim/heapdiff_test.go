package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file drives the slab-backed 4-ary heap and an independent
// container/heap reference scheduler — the pre-slab implementation used
// through PR 3 — side by side through randomized schedule / cancel /
// reschedule workloads, asserting identical fire order and identical
// stale-ID Cancel behavior. Ordering is the strict total order (at, seq),
// so any divergence in sift logic, cancellation repair, or slot recycling
// shows up as a mismatched sequence.

// refEvent is the reference scheduler's separately allocated event struct.
type refEvent struct {
	at      Time
	seq     uint64
	payload int
	index   int // heap position; -1 once fired or cancelled
	lane    int // 1 + the index of the lane it was scheduled on; 0 for a heap event
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool { return refKeyLess(h[i], h[j]) }

func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// refSched is a minimal binary-heap scheduler mirroring the Simulator's
// scheduling semantics: (at, seq) ordering, O(log n) cancel, stale handles
// report false.
type refSched struct {
	h      refHeap
	nextID uint64
}

func (r *refSched) schedule(at Time, payload int) *refEvent {
	ev := &refEvent{at: at, seq: r.nextID, payload: payload}
	r.nextID++
	heap.Push(&r.h, ev)
	return ev
}

func (r *refSched) cancel(ev *refEvent) bool {
	if ev.index < 0 {
		return false
	}
	heap.Remove(&r.h, ev.index)
	ev.index = -1
	return true
}

func (r *refSched) drain() []int {
	var order []int
	for len(r.h) > 0 {
		ev := heap.Pop(&r.h).(*refEvent)
		order = append(order, ev.payload)
	}
	return order
}

func TestDifferentialSchedulerVsContainerHeap(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1337} {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		s := New(seed)
		ref := &refSched{}

		type pair struct {
			id      EventID
			ref     *refEvent
			payload int
		}
		var all []*pair // every entry ever issued, including dead ones
		nextPayload := 0

		// Several rounds: schedule/cancel/reschedule churn, then drain both
		// schedulers and compare the complete fire orders. Later rounds
		// schedule on a warm (recycled, previously grown) slab.
		for round := 0; round < 4; round++ {
			var fired []int
			note := func(a, _ any) { fired = append(fired, a.(*pair).payload) }
			base := s.Now()

			live := func() []*pair {
				out := make([]*pair, 0, len(all))
				for _, p := range all {
					if p.ref.index >= 0 {
						out = append(out, p)
					}
				}
				return out
			}

			const ops = 3000
			for op := 0; op < ops; op++ {
				switch r := rng.Intn(10); {
				case r < 5: // schedule
					p := &pair{payload: nextPayload}
					nextPayload++
					at := base + Time(rng.Intn(1000))
					p.id = s.AtCall(at, note, p, nil)
					p.ref = ref.schedule(at, p.payload)
					all = append(all, p)
				case r < 7: // cancel a random entry, live or stale
					if len(all) == 0 {
						continue
					}
					p := all[rng.Intn(len(all))]
					got, want := s.Cancel(p.id), ref.cancel(p.ref)
					if got != want {
						t.Fatalf("seed %d: Cancel(payload %d) = %v, reference says %v",
							seed, p.payload, got, want)
					}
				default: // reschedule a random live entry at a new time
					l := live()
					if len(l) == 0 {
						continue
					}
					p := l[rng.Intn(len(l))]
					got, want := s.Cancel(p.id), ref.cancel(p.ref)
					if got != want || !got {
						t.Fatalf("seed %d: reschedule-cancel(payload %d) = %v, reference %v",
							seed, p.payload, got, want)
					}
					at := base + Time(rng.Intn(1000))
					p.id = s.AtCall(at, note, p, nil)
					p.ref = ref.schedule(at, p.payload)
				}
			}

			if got, want := s.Pending(), len(ref.h); got != want {
				t.Fatalf("seed %d round %d: Pending() = %d, reference holds %d",
					seed, round, got, want)
			}
			s.Run()
			want := ref.drain()
			if len(fired) != len(want) {
				t.Fatalf("seed %d round %d: fired %d events, reference fired %d",
					seed, round, len(fired), len(want))
			}
			for i := range want {
				if fired[i] != want[i] {
					t.Fatalf("seed %d round %d: fire order diverges at %d: got payload %d, reference %d",
						seed, round, i, fired[i], want[i])
				}
			}

			// Every ID ever issued is now stale (fired or cancelled); Cancel
			// must be a no-op on all of them, in both schedulers.
			for _, p := range all {
				got, want := s.Cancel(p.id), ref.cancel(p.ref)
				if got || want {
					t.Fatalf("seed %d round %d: stale Cancel(payload %d) = %v/%v, want false/false",
						seed, round, p.payload, got, want)
				}
			}
		}
	}
}

// orderedRefHeap is refHeap under a pluggable comparator, so the wide-key
// differential below can also run against deliberately faulty orders.
type orderedRefHeap struct {
	refHeap
	less func(a, b *refEvent) bool
}

func (h *orderedRefHeap) Less(i, j int) bool { return h.less(h.refHeap[i], h.refHeap[j]) }

func refKeyLess(a, b *refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// wideTime draws a schedule time from across the whole non-negative Time
// range: near 0, around 1<<62, above it up to the largest Time, or — half
// the time — one of a few shared values, so large groups of equal times
// are ordered by seq alone. Times below now are raised to now.
func wideTime(rng *rand.Rand, shared []Time, now Time) Time {
	var at Time
	switch r := rng.Intn(8); {
	case r < 4:
		at = shared[rng.Intn(len(shared))]
	case r == 4:
		at = Time(rng.Intn(64))
	case r == 5:
		at = 1<<62 - 32 + Time(rng.Intn(64))
	case r == 6:
		at = 1<<62 + Time(rng.Int63n(1<<62))
	default:
		at = math.MaxInt64 - Time(rng.Intn(64))
	}
	if at < now {
		at = now
	}
	return at
}

// wideLanes are the lane delays the wide-key differential schedules on: a
// zero delay, whose events tie with heap events at now, one nanosecond, and a
// delay far beyond any heap offset near now.
var wideLanes = [...]Time{0, 1, 1 << 40}

// wideKeyDivergence schedules, cancels and reschedules events at wideTime
// keys on a Simulator and on a container/heap reference ordered by less,
// interleaved with Lane.Call on one lane per wideLanes delay and with heap
// events placed on a lane's next key, firing both in slices as it goes, and
// describes the first difference in fire order, Cancel result or Pending
// ("" when they agree throughout).
//
// The reference keeps no lanes: a lane event enters its heap with the key
// AfterCall would have given it. With lateLaneSeq it instead plants the fault
// of a per-lane ring that feeds only its head to the heap and draws the next
// event's seq when the head fires, not when the event was scheduled.
func wideKeyDivergence(seed int64, less func(a, b *refEvent) bool, lateLaneSeq bool) string {
	rng := rand.New(rand.NewSource(seed))
	s := New(seed)
	ref := &orderedRefHeap{less: less}
	var nextID uint64
	shared := []Time{0, 1, 1<<62 - 1, 1 << 62, 1<<62 + 1, 3 << 61, math.MaxInt64 - 1, math.MaxInt64}
	var lanes [len(wideLanes)]*Lane
	for i, d := range wideLanes {
		lanes[i] = s.Lane(d)
	}
	// waiting[i] holds lane i's events that the faulty reference has not yet
	// given a seq; the head of a non-empty waiting list is in the heap.
	var waiting [len(wideLanes)][]*refEvent
	var inLane [len(wideLanes)]int // per lane: events in the reference heap or waiting

	type pair struct {
		id      EventID
		ref     *refEvent
		payload int
	}
	var all []*pair
	var fired []int
	note := func(a, _ any) { fired = append(fired, a.(*pair).payload) }
	pushRef := func(ev *refEvent) {
		ev.seq = nextID
		nextID++
		heap.Push(ref, ev)
	}
	scheduleAt := func(p *pair, at Time) {
		p.id = s.AtCall(at, note, p, nil)
		p.ref = &refEvent{at: at, payload: p.payload}
		pushRef(p.ref)
	}
	laneCall := func(p *pair, i int) {
		lanes[i].Call(note, p, nil)
		p.ref = &refEvent{at: s.Now() + wideLanes[i], payload: p.payload, lane: i + 1}
		if lateLaneSeq && inLane[i] > 0 {
			waiting[i] = append(waiting[i], p.ref)
		} else {
			pushRef(p.ref)
		}
		inLane[i]++
	}
	popRef := func() int {
		ev := heap.Pop(ref).(*refEvent)
		if i := ev.lane - 1; i >= 0 {
			inLane[i]--
			if len(waiting[i]) > 0 {
				pushRef(waiting[i][0])
				waiting[i] = waiting[i][1:]
			}
		}
		return ev.payload
	}
	refPending := func() int {
		n := ref.Len()
		for _, w := range waiting {
			n += len(w)
		}
		return n
	}
	cancel := func(p *pair) (bool, bool) {
		want := p.ref.index >= 0
		if want {
			heap.Remove(ref, p.ref.index)
			p.ref.index = -1
		}
		return s.Cancel(p.id), want
	}
	// laneFits reports whether lane i's next key stays within Time.
	laneFits := func(i int) bool { return s.Now() <= math.MaxInt64-wideLanes[i] }

	for round := 0; round < 6; round++ {
		for op := 0; op < 2000; op++ {
			switch r := rng.Intn(12); {
			case r < 5 || len(all) == 0:
				p := &pair{payload: len(all)}
				all = append(all, p)
				scheduleAt(p, wideTime(rng, shared, s.Now()))
			case r < 7: // a lane event
				if i := rng.Intn(len(lanes)); laneFits(i) {
					p := &pair{payload: len(all)}
					all = append(all, p)
					laneCall(p, i)
				}
			case r == 7: // a heap event on a lane's next key: an at tie
				if i := rng.Intn(len(lanes)); laneFits(i) {
					p := &pair{payload: len(all)}
					all = append(all, p)
					scheduleAt(p, s.Now()+wideLanes[i])
				}
			case r < 10: // cancel a random heap entry, live or stale
				p := all[rng.Intn(len(all))]
				if p.ref.lane != 0 {
					continue // lane events cannot be cancelled
				}
				if got, want := cancel(p); got != want {
					return fmt.Sprintf("seed %d round %d: Cancel(payload %d) = %v, reference %v",
						seed, round, p.payload, got, want)
				}
			default: // reschedule a live heap entry
				if ref.Len() == 0 {
					continue
				}
				// payload indexes all, and the reference heap holds only
				// live entries.
				p := all[ref.refHeap[rng.Intn(ref.Len())].payload]
				if p.ref.lane != 0 {
					continue
				}
				if got, want := cancel(p); !got || !want {
					return fmt.Sprintf("seed %d round %d: reschedule-cancel(payload %d) = %v, reference %v",
						seed, round, p.payload, got, want)
				}
				scheduleAt(p, wideTime(rng, shared, s.Now()))
			}
		}
		if s.Pending() != refPending() {
			return fmt.Sprintf("seed %d round %d: %d pending vs reference %d",
				seed, round, s.Pending(), refPending())
		}
		// Fire a slice of the pending events (all of them in the last
		// round), so later rounds schedule on a clock that has moved.
		n := refPending() / 2
		if round == 5 {
			n = refPending()
		}
		fired = fired[:0]
		s.RunForEvents(uint64(n))
		for i := 0; i < n; i++ {
			want := popRef()
			if i >= len(fired) || fired[i] != want {
				return fmt.Sprintf("seed %d round %d: fire order diverges at %d of %d (reference payload %d)",
					seed, round, i, n, want)
			}
		}
		if len(fired) != n || s.Pending() != refPending() {
			return fmt.Sprintf("seed %d round %d: fired %d of %d, %d pending vs reference %d",
				seed, round, len(fired), n, s.Pending(), refPending())
		}
	}
	return ""
}

// TestDifferentialSchedulerWideKeys is TestDifferentialSchedulerVsContainerHeap
// over keys that span the whole non-negative Time range — near 0, near
// 1<<62 and above it — with large groups of equal times that only seq can
// order, and with lane events mixed in. Small timestamps alone would not
// notice a comparison that mishandles the high bits of at.
func TestDifferentialSchedulerWideKeys(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1337} {
		if d := wideKeyDivergence(seed, refKeyLess, false); d != "" {
			t.Fatal(d)
		}
	}
}

// TestDifferentialSchedulerWideKeysCatchesFaults plants comparators that
// drop one word of the (at, seq) key, drop the top bit of at's range, or let
// lane events win an at tie, and a reference that draws a lane event's seq
// late: the wide-key differential must report a divergence for each.
func TestDifferentialSchedulerWideKeysCatchesFaults(t *testing.T) {
	faults := map[string]func(a, b *refEvent) bool{
		"drops at":  func(a, b *refEvent) bool { return a.seq < b.seq },
		"drops seq": func(a, b *refEvent) bool { return a.at < b.at },
		"at below 1<<62 only": func(a, b *refEvent) bool {
			aa, ba := a.at&(1<<62-1), b.at&(1<<62-1)
			if aa != ba {
				return aa < ba
			}
			return a.seq < b.seq
		},
		"lane first on an at tie": func(a, b *refEvent) bool {
			if a.at != b.at {
				return a.at < b.at
			}
			if (a.lane != 0) != (b.lane != 0) {
				return a.lane != 0
			}
			return a.seq < b.seq
		},
	}
	for name, less := range faults {
		if wideKeyDivergence(1, less, false) == "" {
			t.Errorf("planted fault %q not detected; the wide-key harness is vacuous", name)
		}
	}
	if wideKeyDivergence(1, refKeyLess, true) == "" {
		t.Error("planted fault \"lane seq drawn at its predecessor's fire\" not detected; the wide-key harness is vacuous")
	}
}

// TestDifferentialSchedulerSeqAdvances checks the reference harness itself
// can fail: two schedulers with different tiebreak rules must diverge. (A
// differential test that cannot detect a planted fault proves nothing.)
func TestDifferentialSchedulerSeqAdvances(t *testing.T) {
	s := New(1)
	ref := &refSched{}
	var fired []int
	// Schedule two equal-timestamp events in opposite orders.
	p1, p2 := 1, 2
	s.AtCall(10, func(a, _ any) { fired = append(fired, *(a.(*int))) }, &p1, nil)
	s.AtCall(10, func(a, _ any) { fired = append(fired, *(a.(*int))) }, &p2, nil)
	ref.schedule(10, 2) // reversed on purpose
	ref.schedule(10, 1)
	s.Run()
	want := ref.drain()
	if fired[0] == want[0] {
		t.Fatal("planted FIFO fault not detected; the differential harness is vacuous")
	}
}
