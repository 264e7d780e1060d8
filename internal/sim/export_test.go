package sim

// The pending queue's shape, exposed to the external benchmarks that measure
// it.

// HeapLen returns the number of events pending in s's heap.
func HeapLen(s *Simulator) int { return len(s.heap) }

// LaneLen returns the number of events pending in s's lanes.
func LaneLen(s *Simulator) int { return s.laned }

// NextEvent returns the EventFunc of s's earliest pending event and whether
// that event waits in a lane; ok is false when nothing is pending.
func NextEvent(s *Simulator) (fn EventFunc, inLane, ok bool) {
	lane, _, ok := s.peek()
	if !ok {
		return nil, false, false
	}
	if lane != nil {
		return s.slab[lane.ring[lane.head].slot].call, true, true
	}
	return s.slab[s.heap[0].slot].call, false, true
}
