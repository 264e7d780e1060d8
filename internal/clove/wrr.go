package clove

// WRR is a smooth weighted round-robin scheduler over encap source ports.
// Unlike naive WRR (which emits bursts of the heavy item), the smooth
// variant interleaves picks so consecutive flowlets spread across paths,
// which is what "rotating through the ports according to the set of
// weights" (Sec. 3.2) needs in practice.
//
// Weights are arbitrary non-negative floats; they are treated as relative.
// The scheduler is deterministic.
type WRR struct {
	ports   []uint16
	weights []float64
	current []float64
}

// NewWRR creates a scheduler over ports with equal weights.
func NewWRR(ports []uint16) *WRR {
	w := &WRR{}
	eq := make([]float64, len(ports))
	for i := range eq {
		eq[i] = 1
	}
	w.Reset(ports, eq)
	return w
}

// Reset replaces the port set and weights. Smoothing state restarts. It
// panics on mismatched lengths or negative weights: both are caller bugs.
func (w *WRR) Reset(ports []uint16, weights []float64) {
	if len(ports) != len(weights) {
		panic("clove: ports/weights length mismatch")
	}
	for _, wt := range weights {
		if wt < 0 {
			panic("clove: negative WRR weight")
		}
	}
	w.ports = append(w.ports[:0], ports...)
	w.weights = append(w.weights[:0], weights...)
	w.current = make([]float64, len(ports))
}

// Len returns the number of ports.
func (w *WRR) Len() int { return len(w.ports) }

// Ports returns the scheduled port set (do not modify).
func (w *WRR) Ports() []uint16 { return w.ports }

// Next returns the next port per smooth WRR: each pick adds every weight to
// its accumulator, selects the largest accumulator, and subtracts the total
// weight from it. With all-zero weights it degrades to plain round-robin.
// It panics on an empty scheduler.
func (w *WRR) Next() uint16 {
	if len(w.ports) == 0 {
		panic("clove: Next on empty WRR")
	}
	var total float64
	for _, wt := range w.weights {
		total += wt
	}
	if total == 0 {
		// Plain round-robin via the accumulators.
		best := 0
		for i := range w.current {
			w.current[i]++
			if w.current[i] > w.current[best] {
				best = i
			}
		}
		w.current[best] -= float64(len(w.current))
		return w.ports[best]
	}
	best := 0
	for i := range w.current {
		w.current[i] += w.weights[i]
		if w.current[i] > w.current[best] {
			best = i
		}
	}
	w.current[best] -= total
	return w.ports[best]
}
