package clove

import (
	"math"

	"clove/internal/sim"
)

// PathState is the per-(destination, encap source port) state kept by the
// source hypervisor: the current WRR weight and the latest congestion /
// utilization observations reflected by the destination hypervisor.
type PathState struct {
	Port          uint16
	Weight        float64
	LastCongested sim.Time // most recent ECN feedback for this path; 0 = never
	Util          float64  // latest INT-reported max path utilization
	UtilAt        sim.Time // when Util was reported; 0 = never
}

// WeightTableConfig parameterizes the congestion-reaction rule of Sec. 3.2.
type WeightTableConfig struct {
	// Beta is the fraction removed from a congested path's weight
	// ("reduced by some predefined proportion, e.g., by a third").
	Beta float64
	// Floor is the minimum weight any path keeps, so that previously
	// congested paths continue to be probed and can recover.
	Floor float64
	// CongestedAge is how long after an ECN report a path is still
	// considered congested (for the redistribution rule and for deciding
	// when to relay ECN to the sending VM).
	CongestedAge sim.Time
	// UtilAge is how long an INT utilization sample stays trusted; older
	// samples decay toward zero (optimism re-probes quiet paths).
	UtilAge sim.Time
	// Frozen disables all weight adaptation: OnCongestion and OnUtilization
	// become no-ops before touching any state, so the table stays at the
	// uniform weights it was created with. Differential tests use this to
	// compare Clove-ECN's machinery against a plain round-robin reference.
	Frozen bool
}

// DefaultWeightTableConfig matches the paper's parameters: beta = 1/3,
// congestion memory of a few RTTs.
func DefaultWeightTableConfig(rtt sim.Time) WeightTableConfig {
	return WeightTableConfig{
		Beta:         1.0 / 3.0,
		Floor:        0.02,
		CongestedAge: 4 * rtt,
		UtilAge:      8 * rtt,
	}
}

// WeightTable is the source hypervisor's per-destination path table
// (Fig. 2: "Path weight table"). It owns the WRR scheduler, applies the
// Clove-ECN weight-adjustment rule on congestion feedback, records INT
// utilization for Clove-INT, and survives topology transitions by carrying
// state over to re-discovered port sets.
type WeightTable struct {
	cfg   WeightTableConfig
	paths []PathState
	// wrr mirrors paths' ports and weights. syncWRR rewrites its slices in
	// place, so after the table is built only a larger port set allocates.
	wrr WRR
	// floored is normalize's scratch marker slice, retained so the
	// per-feedback water-filling pass does not allocate.
	floored []bool
	// recipients is OnCongestion's scratch index slice, retained so the
	// real datapath's feedback path stays allocation-free.
	recipients []int
}

// NewWeightTable creates a table over the discovered ports with equal
// weights.
func NewWeightTable(cfg WeightTableConfig, ports []uint16) *WeightTable {
	t := &WeightTable{cfg: cfg}
	t.SetPorts(ports)
	return t
}

// SetPorts installs a (re-)discovered port set. Per the paper's
// optimization, state learned for a port that remains in the set is kept;
// new ports start at the mean weight of the retained ones. Weights are then
// renormalized.
func (t *WeightTable) SetPorts(ports []uint16) {
	// The previous state is searched in a copy, since paths is rewritten in
	// place; the copy lives on the stack for up to len(buf) paths.
	var buf [16]PathState
	old := append(buf[:0], t.paths...)
	mean := 1.0
	if len(old) > 0 {
		var sum float64
		kept := 0
		for _, port := range ports {
			if i := lastIndex(old, port); i >= 0 {
				sum += old[i].Weight
				kept++
			}
		}
		if kept > 0 {
			mean = sum / float64(kept)
		}
	}
	if cap(t.paths) < len(ports) {
		t.paths = make([]PathState, len(ports))
	}
	t.paths = t.paths[:len(ports)]
	for j, port := range ports {
		if i := lastIndex(old, port); i >= 0 {
			t.paths[j] = old[i]
		} else {
			t.paths[j] = PathState{Port: port, Weight: mean}
		}
	}
	t.normalize()
	t.syncWRR()
}

// lastIndex returns the index of the last state for port in paths, or -1.
// The last one wins, as it would when a duplicated port is keyed in a map.
func lastIndex(paths []PathState, port uint16) int {
	for i := len(paths) - 1; i >= 0; i-- {
		if paths[i].Port == port {
			return i
		}
	}
	return -1
}

// Ports returns the current port set in table order.
func (t *WeightTable) Ports() []uint16 {
	out := make([]uint16, len(t.paths))
	for i, p := range t.paths {
		out[i] = p.Port
	}
	return out
}

// Len reports the number of paths.
func (t *WeightTable) Len() int { return len(t.paths) }

// Weights returns a snapshot map port -> weight.
func (t *WeightTable) Weights() map[uint16]float64 {
	m := make(map[uint16]float64, len(t.paths))
	for _, p := range t.paths {
		m[p.Port] = p.Weight
	}
	return m
}

// States returns a copy of the per-path state (tests, telemetry).
func (t *WeightTable) States() []PathState { return append([]PathState(nil), t.paths...) }

// VisitStates calls fn for every path's state in table order without
// copying the slice (the telemetry sampler walks tables every interval).
func (t *WeightTable) VisitStates(fn func(PathState)) {
	for i := range t.paths {
		fn(t.paths[i])
	}
}

// NextPort returns the next flowlet's port per weighted round-robin.
func (t *WeightTable) NextPort() uint16 { return t.wrr.Next() }

// OnCongestion applies the Clove-ECN rule for ECN feedback on port at time
// now: remove Beta of the path's weight and spread it equally over the
// currently-uncongested other paths (over all other paths if none is
// uncongested), then re-floor and renormalize.
func (t *WeightTable) OnCongestion(port uint16, now sim.Time) {
	if t.cfg.Frozen {
		return
	}
	idx := t.index(port)
	if idx < 0 {
		return
	}
	t.paths[idx].LastCongested = now

	removed := t.paths[idx].Weight * t.cfg.Beta
	t.paths[idx].Weight -= removed

	recipients := t.recipients[:0]
	for i := range t.paths {
		if i != idx && !t.congested(i, now) {
			recipients = append(recipients, i)
		}
	}
	if len(recipients) == 0 {
		for i := range t.paths {
			if i != idx {
				recipients = append(recipients, i)
			}
		}
	}
	if len(recipients) == 0 {
		// Single path: nothing to shift to; restore.
		t.paths[idx].Weight += removed
		return
	}
	share := removed / float64(len(recipients))
	for _, i := range recipients {
		t.paths[i].Weight += share
	}
	t.recipients = recipients[:0]
	t.normalize()
	t.syncWRR()
}

// OnUtilization records an INT utilization report for port.
func (t *WeightTable) OnUtilization(port uint16, util float64, now sim.Time) {
	if t.cfg.Frozen {
		return
	}
	if idx := t.index(port); idx >= 0 {
		t.paths[idx].Util = util
		t.paths[idx].UtilAt = now
	}
}

// LeastUtilizedPort returns the port with the smallest current utilization
// estimate (Clove-INT's proactive choice). Samples older than UtilAge count
// as zero so that quiet paths get re-probed. Ties break by table order.
//
// When no path has a fresh sample at all (run start, or every report aged
// out), every effective utilization is zero and picking the tie-break winner
// would herd every new flowlet onto table index 0. Instead the choice falls
// back to the table's weighted round-robin, which spreads flowlets across
// all paths until INT feedback arrives.
func (t *WeightTable) LeastUtilizedPort(now sim.Time) uint16 {
	if len(t.paths) == 0 {
		panic("clove: LeastUtilizedPort on empty table")
	}
	best, bestUtil := 0, math.Inf(1)
	anyFresh := false
	for i := range t.paths {
		if t.fresh(i, now) {
			anyFresh = true
		}
		u := t.effectiveUtil(i, now)
		if u < bestUtil {
			best, bestUtil = i, u
		}
	}
	if !anyFresh {
		return t.wrr.Next()
	}
	return t.paths[best].Port
}

// AllCongested reports whether every path has fresh congestion feedback —
// the condition under which Clove stops masking ECN from the sending VM.
func (t *WeightTable) AllCongested(now sim.Time) bool {
	if len(t.paths) == 0 {
		return false
	}
	for i := range t.paths {
		if !t.congested(i, now) {
			return false
		}
	}
	return true
}

func (t *WeightTable) congested(i int, now sim.Time) bool {
	lc := t.paths[i].LastCongested
	return lc > 0 && now-lc < t.cfg.CongestedAge
}

// fresh reports whether path i has a utilization sample within UtilAge.
func (t *WeightTable) fresh(i int, now sim.Time) bool {
	return t.paths[i].UtilAt != 0 && now-t.paths[i].UtilAt <= t.cfg.UtilAge
}

func (t *WeightTable) effectiveUtil(i int, now sim.Time) float64 {
	if !t.fresh(i, now) {
		return 0
	}
	return t.paths[i].Util
}

func (t *WeightTable) index(port uint16) int {
	for i := range t.paths {
		if t.paths[i].Port == port {
			return i
		}
	}
	return -1
}

// normalize clamps weights to the floor and rescales to sum 1, keeping the
// floor invariant after the rescale.
//
// A single clamp-then-rescale pass is not enough: clamping raises the sum
// above 1, and dividing by that sum pushes the clamped paths back below the
// documented minimum — with many paths near the floor the violation
// compounds, and Clove stops probing exactly the paths the floor exists to
// keep alive. Instead, water-fill: pin every path that lands at the floor
// and rescale only the free paths into the remaining mass, repeating until
// no free path falls below the floor. The first iteration is numerically
// identical to the old single pass (multiply by 1, divide by sum), so runs
// that never hit the floor are bit-for-bit unchanged.
//
// When the floor itself is infeasible (Floor * len(paths) >= 1, e.g. 64
// paths at the default 0.02) no distribution can satisfy it; the table
// falls back to uniform weights, the closest floor-respecting shape.
func (t *WeightTable) normalize() {
	n := len(t.paths)
	if n == 0 {
		return
	}
	floor := t.cfg.Floor
	if floor*float64(n) >= 1 {
		eq := 1.0 / float64(n)
		for i := range t.paths {
			t.paths[i].Weight = eq
		}
		return
	}
	var sum float64
	for i := range t.paths {
		if t.paths[i].Weight < floor {
			t.paths[i].Weight = floor
		}
		sum += t.paths[i].Weight
	}
	if sum <= 0 {
		eq := 1.0 / float64(n)
		for i := range t.paths {
			t.paths[i].Weight = eq
		}
		return
	}
	if cap(t.floored) < n {
		t.floored = make([]bool, n)
	}
	floored := t.floored[:n]
	for i := range floored {
		floored[i] = false
	}
	// Each iteration either converges or pins at least one more path, so the
	// loop runs at most n times. Feasibility (floor*n < 1) guarantees the
	// free paths' target mass always exceeds floor per path on average, so
	// not every path can end up pinned; the defensive break below only
	// triggers under floating-point pathology.
	for iter := 0; iter < n; iter++ {
		nFloored := 0
		sumFree := 0.0
		for i := range t.paths {
			if floored[i] {
				nFloored++
			} else {
				sumFree += t.paths[i].Weight
			}
		}
		target := 1 - floor*float64(nFloored)
		if nFloored == n || sumFree <= 0 {
			break
		}
		changed := false
		for i := range t.paths {
			if floored[i] {
				continue
			}
			w := t.paths[i].Weight * target / sumFree
			if w < floor {
				w = floor
				floored[i] = true
				changed = true
			}
			t.paths[i].Weight = w
		}
		if !changed {
			return
		}
	}
}

// syncWRR copies the table's ports and weights into the WRR and restarts its
// smoothing state, as WRR.Reset would, without allocating unless the path
// count outgrew the WRR's arrays. One []float64 of 2n backs weights and
// current.
func (t *WeightTable) syncWRR() {
	n := len(t.paths)
	w := &t.wrr
	if cap(w.ports) < n {
		w.ports = make([]uint16, n)
		buf := make([]float64, 2*n)
		w.weights, w.current = buf[:n:n], buf[n:]
	}
	w.ports, w.weights, w.current = w.ports[:n], w.weights[:n], w.current[:n]
	for i, p := range t.paths {
		if p.Weight < 0 {
			panic("clove: negative WRR weight")
		}
		w.ports[i] = p.Port
		w.weights[i] = p.Weight
		w.current[i] = 0
	}
}
