package sim

import (
	"fmt"
	"math"
)

// A Lane is a FIFO of pending events that all share one delay. Every event a
// lane holds was scheduled at now+delay with the next seq; the clock never
// runs backwards and seq only grows, so the lane's (at, seq) keys arrive
// already sorted and the lane needs no heap. fire takes the earliest of the
// heap root and each non-empty lane's head, so a lane event costs a ring
// append and a ring advance, with no sift — and fires in exactly the (at, seq)
// order the heap would have given it.
//
// The network model puts every link propagation in its simulator's lane for
// the link's delay: three quarters of a web-search run's pending events, all
// with the fabric's one or two delays.
type Lane struct {
	s     *Simulator
	delay Time
	// ring holds the pending events' keys and slots, oldest at head. It is
	// allocated on the first Call, starts at 8 entries, doubles when full and
	// never shrinks; its length is a power of two.
	ring []heapEnt
	head int
	n    int
}

// initialLane is a lane ring's first size, a power of two.
const initialLane = 8

// Lane returns the simulator's lane for delay, creating it on first use. A
// fabric has one or two link delays, so the lookup is linear. A negative
// delay panics.
func (s *Simulator) Lane(delay Time) *Lane {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative lane delay %v", delay))
	}
	for _, l := range s.lanes {
		if l.delay == delay {
			return l
		}
	}
	l := &Lane{s: s, delay: delay}
	s.lanes = append(s.lanes, l)
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

// pop removes and returns the lane's oldest slot. The lane must be non-empty.
func (l *Lane) pop() int32 {
	slot := l.ring[l.head].slot
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	l.s.laned--
	return slot
}

// peek returns the lane whose head is the earliest pending event (nil when
// it is the heap root), that event's time, and whether anything is pending.
// With every lane empty it reads the heap root alone; otherwise each lane is
// one length check, and one key compare when it holds events.
func (s *Simulator) peek() (lane *Lane, at Time, ok bool) {
	if s.laned == 0 {
		if len(s.heap) == 0 {
			return nil, 0, false
		}
		return nil, s.heap[0].at, true
	}
	key := heapEnt{at: math.MaxInt64, seq: math.MaxUint64}
	if len(s.heap) > 0 {
		key = s.heap[0]
	}
	for _, l := range s.lanes {
		if l.n > 0 && entLess(l.ring[l.head], key) {
			lane, key = l, l.ring[l.head]
		}
	}
	return lane, key.at, true
}
