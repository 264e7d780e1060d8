package sim

// The pending queue's shape, exposed to the external benchmarks that measure
// it.

// HeapLen returns the number of events pending in s's heap.
func HeapLen(s *Simulator) int { return len(s.heap) }

// LaneLen returns the number of events pending in s's lanes.
func LaneLen(s *Simulator) int { return s.laned }

// NextEvent returns the callback of s's earliest pending event — its
// EventFunc, or its lane's callback — and whether that event waits in a lane;
// ok is false when nothing is pending.
func NextEvent(s *Simulator) (fn any, inLane, ok bool) {
	l, _, ok := s.peek()
	if !ok {
		return nil, false, false
	}
	if l != nil {
		return l.call, true, true
	}
	return s.slab[s.heap[0].slot].call, false, true
}

// A pickFault plants a fault in the scheduler's own head pick for the
// differential harness: the head order is left as it was across one kind of
// update, as if the code that updates it there were missing.
type pickFault uint8

const (
	pickSound          pickFault = iota
	pickStaleAfterPop            // not updated after a lane pops
	pickStaleAfterPush           // not updated when an event enters an empty lane
)

// keepOrder snapshots s's head order and returns a function that restores it.
func keepOrder(s *Simulator) (restore func()) {
	saved := append([]heapEnt(nil), s.order...)
	return func() { s.order = append(s.order[:0], saved...) }
}

// laneCallUnder is l.Call(a, b) under fault f.
func laneCallUnder[A, B any](f pickFault, l *Lane[A, B], a *A, b *B) {
	if f == pickStaleAfterPush && l.n == 0 {
		defer keepOrder(l.s)()
	}
	l.Call(a, b)
}

// runForEventsUnder is s.RunForEvents(n) under fault f. The events it fires
// must not schedule: under pickStaleAfterPop it fires them one at a time and
// restores the head order after each that came from a lane.
func runForEventsUnder(f pickFault, s *Simulator, n uint64) {
	if f != pickStaleAfterPop {
		s.RunForEvents(n)
		return
	}
	for ; n > 0; n-- {
		lane, _, ok := s.peek()
		if !ok {
			return
		}
		restore := keepOrder(s)
		s.RunForEvents(1)
		if lane != nil {
			restore()
		}
	}
}
