package sim

import "math/bits"

// EventFunc is the simulator's one callback form. The two operands are
// supplied at scheduling time (AtCall/AfterCall) and handed back verbatim
// when the event fires, so callers can bind a receiver and a payload without
// allocating a closure per event. Pass
// pointers (or nil): boxing a pointer into an interface does not allocate,
// while boxing most scalar values does.
type EventFunc func(a, b any)

// event is one scheduled callback. Events live in the Simulator's contiguous
// slab ([]event); fired and cancelled slots are recycled through a free list
// of slot indices. An event is identified across recycling by its seq — the
// globally unique schedule number — so a stale EventID can never cancel (or
// be confused with) the slot's next tenant.
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among equal timestamps; doubles as the
	// incarnation stamp (globally unique per schedule, never reused)

	// call(a, b) runs when the event fires (At/After pass callFunc and the
	// closure).
	call EventFunc
	a, b any

	// heapIdx is the slot's position in the Simulator's heap order array,
	// maintained by the sift routines so that cancellation can be O(log n).
	// Negative once fired or cancelled.
	heapIdx int32
}

// EventID identifies a scheduled event so it can be cancelled. The zero
// EventID is never issued (slots are stamped +1). IDs carry the event's
// schedule sequence number as an incarnation stamp: once the event has fired
// or been cancelled, the ID goes stale and Cancel on it is a no-op, even if
// the underlying slab slot has been recycled for a new event — seq values
// are never reused, so a stale ID cannot collide with a later tenant.
type EventID struct {
	slot int32  // slab index + 1; 0 marks the zero (never-issued) ID
	seq  uint64 // incarnation stamp of the identified event
}

// The event queue is a 4-ary implicit min-heap of heapEnt entries, ordered
// by (at, seq). Compared to container/heap over []*event this removes the
// heap.Interface virtual calls and — via the 4-ary fanout — half the tree
// depth. Each entry carries a copy of its event's sort key alongside the
// slab slot index: sift comparisons then read only the contiguous heap
// array (a parent's four children share one or two cache lines) instead of
// chasing four random 64-byte slab entries per level, which at
// fabric-scale queue depths (hundreds of pending events)
// is the difference between arithmetic and memory stalls. The key copy
// cannot go stale: a pending event's (at, seq) never changes — reschedule
// is cancel + schedule, and recycled slots get a fresh, never-reused seq.
// Ordering is the strict total order (at, seq), identical to the binary
// container/heap this replaced, so pop order — and therefore every golden
// figure — is byte-identical by construction.
//
// The heap holds only the events that need one. Link propagations, three
// quarters of a web-search run's pending events, wait in fixed-delay lanes
// (lane.go) instead, so on a Clove-ECN web-search run the heap holds about
// 21 events at a pop (serializer completions and timers) beside about 71 in
// the link lane, where it held about 93 before lanes.
//
// siftDown picks the smallest of the four children without a branch. The
// heap's events have near-random times, so which child is smallest is a
// coin toss the branch predictor loses: with an entLess branch in the child
// scan, siftDown was 35 % of a run's CPU samples (measured before lanes, at
// 64–122 pending events). Folding the comparison's borrow into the index
// through a mask makes BenchmarkHeapSteady64 (64 pending events) about 1.3×
// faster; EXPERIMENTS.md "Performance" has the numbers.

// heapEnt is one pending-queue entry: the event's sort key plus its slab
// slot. 24 bytes, so a 4-child comparison spans at most two cache lines.
type heapEnt struct {
	at   Time
	seq  uint64
	slot int32
}

// entLess orders entries by (at, seq). seq uniqueness makes the order strict.
func entLess(a, b heapEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush appends slot and restores the heap property. Pushing onto an
// empty heap — the steady state of serialized event chains, where exactly
// one event is pending at a time — skips the sift-up call entirely.
func (s *Simulator) heapPush(slot int32) {
	ev := &s.slab[slot]
	i := len(s.heap)
	s.heap = append(s.heap, heapEnt{at: ev.at, seq: ev.seq, slot: slot})
	if i == 0 {
		ev.heapIdx = 0
		return
	}
	s.siftUp(i)
}

// heapPopRoot removes and returns the minimum entry's slot. The caller must
// know the heap is non-empty. The single-entry case returns without touching
// the entry bytes beyond the slot — the steady state of serialized event
// chains pops and pushes through this path once per event.
func (s *Simulator) heapPopRoot() int32 {
	h := s.heap
	root := h[0].slot
	n := len(h) - 1
	s.heap = h[:n]
	if n > 0 {
		h[0] = h[n]
		s.siftDown(0)
	}
	return root
}

// heapRemove deletes the entry at heap position i (cancellation).
func (s *Simulator) heapRemove(i int) {
	h := s.heap
	n := len(h) - 1
	last := h[n]
	s.heap = h[:n]
	if i < n {
		s.heap[i] = last
		if !s.siftDown(i) {
			s.siftUp(i)
		}
	}
}

// siftUp moves the entry at position i toward the root until its parent is
// smaller. The hole-based formulation (hold the entry, slide parents down,
// write once) does one store per level instead of a three-way swap.
func (s *Simulator) siftUp(i int) {
	h := s.heap
	ent := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		pe := h[p]
		if entLess(pe, ent) {
			break
		}
		h[i] = pe
		s.slab[pe.slot].heapIdx = int32(i)
		i = p
	}
	h[i] = ent
	s.slab[ent.slot].heapIdx = int32(i)
}

// siftDown moves the entry at position i toward the leaves until it is no
// larger than its smallest child. It reports whether the entry moved, which
// heapRemove uses to decide if a sift-up is needed instead.
func (s *Simulator) siftDown(i int) bool {
	h := s.heap
	n := len(h)
	ent := h[i]
	i0 := i
	for {
		c := i<<2 + 1 // first of up to four children
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		// Branch-free child pick: h[j] orders before h[m] exactly when the
		// 128-bit subtraction (at, seq) − (at, seq) borrows out of its high
		// word, and the borrow folds into m through a mask. Comparing at as
		// unsigned is valid because every scheduled time is ≥ 0: schedule
		// panics on a time before now, and now starts at 0.
		m := c
		for j := c + 1; j < end; j++ {
			_, borrow := bits.Sub64(h[j].seq, h[m].seq, 0)
			_, borrow = bits.Sub64(uint64(h[j].at), uint64(h[m].at), borrow)
			m += (j - m) & -int(borrow)
		}
		if entLess(ent, h[m]) {
			break
		}
		h[i] = h[m]
		s.slab[h[m].slot].heapIdx = int32(i)
		i = m
	}
	h[i] = ent
	s.slab[ent.slot].heapIdx = int32(i)
	return i > i0
}
