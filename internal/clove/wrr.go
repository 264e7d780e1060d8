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
	paths []pathRec
}

// NewWRR creates a scheduler over ports with equal weights.
func NewWRR(ports []uint16) *WRR {
	w := &WRR{paths: make([]pathRec, len(ports))}
	for i, port := range ports {
		w.paths[i] = pathRec{port: port, weight: 1}
	}
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
		w.paths = append(w.paths, pathRec{port: port, weight: weights[i]})
	}
	restart(w.paths)
}

// restart zeroes every accumulator, so picks start afresh from the current
// weights. It panics on a negative weight, a caller bug.
func restart(paths []pathRec) {
	for i := range paths {
		if paths[i].weight < 0 {
			panic("clove: negative WRR weight")
		}
		paths[i].current = 0
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

// Next returns the next port per smooth WRR. It panics on an empty
// scheduler.
func (w *WRR) Next() uint16 { return next(w.paths) }

// next is the smooth WRR step WRR and WeightTable share: each pick adds
// every weight to its accumulator, selects the largest accumulator, and
// subtracts the total weight from it. With all-zero weights it degrades to
// plain round-robin. It panics on an empty path set.
func next(paths []pathRec) uint16 {
	if len(paths) == 0 {
		panic("clove: Next on empty WRR")
	}
	var total float64
	for _, p := range paths {
		total += p.weight
	}
	if total == 0 {
		// Plain round-robin via the accumulators.
		best := 0
		for i := range paths {
			paths[i].current++
			if paths[i].current > paths[best].current {
				best = i
			}
		}
		paths[best].current -= float64(len(paths))
		return paths[best].port
	}
	best := 0
	for i := range paths {
		paths[i].current += paths[i].weight
		if paths[i].current > paths[best].current {
			best = i
		}
	}
	paths[best].current -= total
	return paths[best].port
}
