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
	paths []wrrPath
}

// wrrPath is one scheduled port: its weight and its smoothing accumulator.
type wrrPath struct {
	port    uint16
	weight  float64
	current float64
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
	w.paths = w.paths[:0]
	for i, port := range ports {
		w.paths = append(w.paths, wrrPath{port: port, weight: weights[i]})
	}
	w.restart()
}

// restart zeroes every accumulator, so picks start afresh from the current
// weights. It panics on a negative weight, a caller bug.
func (w *WRR) restart() {
	for i := range w.paths {
		if w.paths[i].weight < 0 {
			panic("clove: negative WRR weight")
		}
		w.paths[i].current = 0
	}
}

// Len returns the number of ports.
func (w *WRR) Len() int { return len(w.paths) }

// Ports returns a copy of the scheduled port set.
func (w *WRR) Ports() []uint16 {
	out := make([]uint16, len(w.paths))
	for i, p := range w.paths {
		out[i] = p.port
	}
	return out
}

// Next returns the next port per smooth WRR: each pick adds every weight to
// its accumulator, selects the largest accumulator, and subtracts the total
// weight from it. With all-zero weights it degrades to plain round-robin.
// It panics on an empty scheduler.
func (w *WRR) Next() uint16 {
	if len(w.paths) == 0 {
		panic("clove: Next on empty WRR")
	}
	var total float64
	for _, p := range w.paths {
		total += p.weight
	}
	if total == 0 {
		// Plain round-robin via the accumulators.
		best := 0
		for i := range w.paths {
			w.paths[i].current++
			if w.paths[i].current > w.paths[best].current {
				best = i
			}
		}
		w.paths[best].current -= float64(len(w.paths))
		return w.paths[best].port
	}
	best := 0
	for i := range w.paths {
		w.paths[i].current += w.paths[i].weight
		if w.paths[i].current > w.paths[best].current {
			best = i
		}
	}
	w.paths[best].current -= total
	return w.paths[best].port
}
