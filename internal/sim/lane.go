package sim

import "fmt"

// A Lane is a FIFO of pending events that all share one delay. Every event a
// lane holds was scheduled at now+delay with the next seq; the clock never
// runs backwards and seq only grows, so the lane's (at, seq) keys arrive
// already sorted and the lane needs no heap. fire takes the earlier of the
// heap root and the earliest lane head, so a lane event costs a ring append
// and a ring advance, with no sift — and fires in exactly the (at, seq) order
// the heap would have given it.
//
// The network model puts every link propagation in its simulator's lane for
// the link's delay, and every serialization of a full segment or a bare ACK
// in the lane for that packet's transmission time at the link's rate: over
// 99 % of a web-search run's events, on three lanes (five on the k=16 fat
// tree, which has two link rates).
type Lane struct {
	s     *Simulator
	delay Time
	idx   int32 // position in s.lanes
	// ring holds the pending events' keys and slots, oldest at head. It is
	// allocated on the first Call, starts at 8 entries, doubles when full and
	// never shrinks; its length is a power of two.
	ring []heapEnt
	head int
	n    int
}

// initialLane is a lane ring's first size, a power of two.
const initialLane = 8

// MaxLanes caps the lanes one Simulator creates. A fabric uses a few: one
// per propagation delay and two per link rate. Past the cap Lane returns nil
// and the caller schedules on the heap, so a run that sweeps many rates
// cannot grow the lanes, or the insertion walk of the head order, without
// bound.
const MaxLanes = 16

// Lane returns the simulator's lane for delay, creating it on first use, or
// nil when delay has no lane and MaxLanes already exist. The lookup is linear
// over at most MaxLanes lanes; the network model calls it when it builds a
// link or changes a link's rate, never per packet. A negative delay panics.
func (s *Simulator) Lane(delay Time) *Lane {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative lane delay %v", delay))
	}
	for _, l := range s.lanes {
		if l.delay == delay {
			return l
		}
	}
	if len(s.lanes) == MaxLanes {
		return nil
	}
	l := &Lane{s: s, delay: delay, idx: int32(len(s.lanes))}
	s.lanes = append(s.lanes, l)
	if s.order == nil {
		s.order = make([]heapEnt, 0, MaxLanes) // never grows: one entry per lane
	}
	return l
}

// Call schedules fn(a, b) delay after the current time, exactly as AfterCall
// would (same slot, same at, same seq), but queues it on the lane instead of
// the heap. A lane event cannot be cancelled, so Call returns no EventID; its
// slot keeps heapIdx −1, so a stale EventID naming the slot still cancels
// nothing. Like AfterCall, it panics when now+delay overflows Time.
func (l *Lane) Call(fn EventFunc, a, b any) {
	s := l.s
	at := s.now + l.delay
	if at < s.now {
		panic(fmt.Sprintf("sim: lane event at %v before now %v", at, s.now))
	}
	slot := s.getSlot()
	ev := &s.slab[slot]
	ev.at = at
	ev.seq = s.nextID
	s.nextID++
	ev.call = fn
	ev.a, ev.b = a, b
	if l.n == len(l.ring) {
		l.grow()
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = heapEnt{at: ev.at, seq: ev.seq, slot: slot}
	l.n++
	s.laned++
	if l.n == 1 {
		k := len(s.order)
		s.order = s.order[:k+1]
		s.placeHead(k, heapEnt{at: ev.at, seq: ev.seq, slot: l.idx})
	}
}

// grow doubles the ring (or allocates its first one), unwrapping the pending
// events to the front.
func (l *Lane) grow() {
	ring := make([]heapEnt, max(initialLane, 2*len(l.ring)))
	for i := 0; i < l.n; i++ {
		ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring, l.head = ring, 0
}

// The head order keeps the non-empty lanes sorted by head key in s.order,
// latest first, so peek compares the last entry with the heap root once,
// whatever the lane count; an entry's slot names its lane, not an event. A
// lane's head changes, and the order is updated, only when the lane pops (it
// is then the last entry: its next head walks toward the front past the heads
// before it, or leaves with the lane's last event) and when an event enters
// the lane empty (its head walks in from the back). On a web-search run about
// three lanes hold events, and a popped lane's next head stays last 48 % of
// the time (DESIGN.md, "Lanes").

// pop removes and returns the lane's oldest slot and moves the lane's new
// head into place in the head order. The lane must be the one peek picked:
// the last entry of s.order.
func (l *Lane) pop() int32 {
	s := l.s
	slot := l.ring[l.head].slot
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	s.laned--
	k := len(s.order) - 1
	if l.n == 0 {
		s.order = s.order[:k]
		return slot
	}
	h := l.ring[l.head]
	s.placeHead(k, heapEnt{at: h.at, seq: h.seq, slot: l.idx})
	return slot
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
func (s *Simulator) peek() (lane *Lane, at Time, ok bool) {
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
