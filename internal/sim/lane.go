package sim

import (
	"fmt"
	"unsafe"
)

// A Lane is a FIFO of pending events that share one delay and one callback,
// fn(a, b). Every event a lane holds was scheduled at now+delay with the next
// seq, so its keys arrive sorted and the lane needs no heap: a lane event
// costs a ring append and a ring advance, with no sift, and fires in exactly
// the (at, seq) order the heap would have given it. The event is one 32-byte
// record (laneEnt), written once at the ring's tail by Call and read once, in
// order, at its head by fire; it takes no slab slot. Lanes are keyed by
// (delay, callback): the network model's are (a link's delay, linkPropagate)
// and (a full segment's or bare ACK's transmission time at a link's rate,
// linkTxDone), over 99 % of a run's events on three lanes (five on the k=16
// fat tree, which has two link rates).
type Lane[A, B any] lane

// lane is a Lane without its operand types, as the Simulator keeps it.
type lane struct {
	s     *Simulator
	delay Time
	idx   int32                     // position in s.lanes
	fn    unsafe.Pointer            // the callback's func value, half the key
	call  func(a, b unsafe.Pointer) // the callback, taking the record's operands
	// ring holds the pending events, oldest at head. It is allocated on the
	// first Call, starts at 8 entries, doubles when full and never shrinks;
	// its length is a power of two.
	ring []laneEnt
	head int
	n    int
}

// laneEnt is one pending lane event.
type laneEnt struct {
	at   Time
	seq  uint64
	a, b unsafe.Pointer
}

// initialLane is a lane ring's first size, a power of two.
const initialLane = 8

// MaxLanes caps the lanes one Simulator creates. A fabric uses a few: one
// per propagation delay and two per link rate. Past the cap LaneFor returns
// nil and the caller schedules on the heap, so a run that sweeps many rates
// cannot grow the lanes, or the head order's insertion walk, without bound.
const MaxLanes = 16

// LaneFor returns s's lane for delay and fn (the same function or closure),
// creating it on first use, or nil when it does not exist and MaxLanes do.
// The lookup is linear: the network model calls it when it builds a link or
// changes a link's rate, never per packet. A negative delay or nil fn panics.
func LaneFor[A, B any](s *Simulator, delay Time, fn func(a *A, b *B)) *Lane[A, B] {
	if delay < 0 || fn == nil {
		panic(fmt.Sprintf("sim: lane for delay %v, nil callback %t", delay, fn == nil))
	}
	// A func value points to its closure record, and a func of two pointer
	// words is called alike whatever they point to.
	key := *(*unsafe.Pointer)(unsafe.Pointer(&fn))
	for _, l := range s.lanes {
		if l.delay == delay && l.fn == key {
			return (*Lane[A, B])(l)
		}
	}
	if len(s.lanes) == MaxLanes {
		return nil
	}
	l := &lane{s: s, delay: delay, idx: int32(len(s.lanes)), fn: key,
		call: *(*func(a, b unsafe.Pointer))(unsafe.Pointer(&fn))}
	s.lanes = append(s.lanes, l)
	return (*Lane[A, B])(l)
}

// Call schedules the lane's fn(a, b) delay after the current time, with the
// at and seq AfterCall would give it, as one record at the ring's tail. A
// lane event cannot be cancelled, so Call returns no EventID. Like AfterCall,
// it panics when now+delay overflows Time.
func (l *Lane[A, B]) Call(a *A, b *B) {
	s := l.s
	at := s.now + l.delay
	if at < s.now {
		panic(fmt.Sprintf("sim: lane event at %v before now %v", at, s.now))
	}
	if l.n == len(l.ring) {
		(*lane)(l).grow()
	}
	seq := s.nextID
	s.nextID++
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = laneEnt{at, seq, unsafe.Pointer(a), unsafe.Pointer(b)}
	l.n++
	s.laned++
	s.peak = max(s.peak, len(s.heap)+s.laned)
	if l.n == 1 {
		k := len(s.order)
		s.order = s.order[:k+1]
		s.placeHead(k, heapEnt{at: at, seq: seq, slot: l.idx})
	}
}

// grow doubles the ring (or allocates its first one), unwrapping the pending
// events to the front.
func (l *lane) grow() {
	ring := make([]laneEnt, max(initialLane, 2*len(l.ring)))
	for i := 0; i < l.n; i++ {
		ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring, l.head = ring, 0
}

// The head order keeps the non-empty lanes sorted by head key in s.order,
// latest first, so peek compares the last entry with the heap root once,
// whatever the lane count; an entry's slot names its lane. A lane's head
// changes only when the lane pops (it is then the last entry: its next head
// walks toward the front past the heads before it, or leaves with the lane's
// last event) and when an event enters the lane empty (its head walks in from
// the back). A popped lane's next head stays last 48 % of the time on a
// web-search run (DESIGN.md, "Lanes").

// pop removes and returns the lane's oldest record, clearing its operands in
// the ring, and moves the lane's new head into place in the head order. The
// lane must be the one peek picked: the last entry of s.order.
func (l *lane) pop() laneEnt {
	s := l.s
	r := &l.ring[l.head]
	e := *r
	r.a, r.b = nil, nil
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	s.laned--
	k := len(s.order) - 1
	if l.n == 0 {
		s.order = s.order[:k]
		return e
	}
	h := &l.ring[l.head]
	s.placeHead(k, heapEnt{at: h.at, seq: h.seq, slot: l.idx})
	return e
}

// placeHead writes key at position j of s.order, after sliding back by one
// place every entry before j that orders before key.
func (s *Simulator) placeHead(j int, key heapEnt) {
	o := s.order
	for j > 0 && entLess(o[j-1], key) {
		o[j] = o[j-1]
		j--
	}
	o[j] = key
}

// peek returns the lane whose head is the earliest pending event (nil when
// it is the heap root), that event's time, and whether anything is pending.
// With every lane empty it reads the heap root alone; otherwise it compares
// the head order's earliest entry with the heap root.
func (s *Simulator) peek() (l *lane, at Time, ok bool) {
	if s.laned == 0 {
		if len(s.heap) == 0 {
			return nil, 0, false
		}
		return nil, s.heap[0].at, true
	}
	w := s.order[len(s.order)-1]
	if len(s.heap) > 0 && entLess(s.heap[0], w) {
		return nil, s.heap[0].at, true
	}
	return s.lanes[w.slot], w.at, true
}
