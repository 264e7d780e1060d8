package clove

import (
	"math"

	"clove/internal/packet"
	"clove/internal/sim"
)

// PathState is a snapshot of one path of a WeightTable, the per-(destination,
// encap source port) state kept by the source hypervisor: the current WRR
// weight and the latest congestion / utilization observations reflected by
// the destination hypervisor.
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
// (Fig. 2: "Path weight table"). It schedules ports by smooth weighted
// round-robin, applies the Clove-ECN weight-adjustment rule on congestion
// feedback, records INT utilization for Clove-INT, and survives topology
// transitions by carrying state over to re-discovered port sets.
//
// A table is two objects: this 32-byte header and one 48-byte record per
// path. The header points at its config, which a vswitch's tables share
// with their policy; a table from NewWeightTable keeps its own copy in the
// header's allocation.
type WeightTable struct {
	cfg   *WeightTableConfig
	paths []pathRec // table order
}

// pathRec is one path of a table or WRR: its port and weight, the smoothing
// accumulator, normalize's floor marker, and the latest congestion and
// utilization reports. A WRR reads only the port, weight and accumulator.
type pathRec struct {
	port          uint16
	floored       bool
	weight        float64
	current       float64
	lastCongested sim.Time // most recent ECN feedback; 0 = never
	util          float64  // latest INT-reported max path utilization
	utilAt        sim.Time // when util was reported; 0 = never
}

// NewWeightTable creates a table over the discovered ports with equal
// weights and its own copy of cfg.
func NewWeightTable(cfg WeightTableConfig, ports []uint16) *WeightTable {
	own := &struct {
		t   WeightTable
		cfg WeightTableConfig
	}{cfg: cfg}
	own.t.cfg = &own.cfg
	own.t.SetPorts(ports)
	return &own.t
}

// NewSharedWeightTable is NewWeightTable reading cfg in place: cfg must not
// change while the table lives.
func NewSharedWeightTable(cfg *WeightTableConfig, ports []uint16) *WeightTable {
	t := &WeightTable{cfg: cfg}
	t.SetPorts(ports)
	return t
}

// SetPorts installs a (re-)discovered port set. Per the paper's
// optimization, state learned for a port that remains in the set is kept;
// new ports start at the mean weight of the retained ones. Weights are then
// renormalized.
func (t *WeightTable) SetPorts(ports []uint16) {
	// The previous state is searched in a copy, since the records are
	// rewritten in place; the copy lives on the stack for up to 16 paths.
	var buf [16]pathRec
	old := append(buf[:0], t.paths...)
	mean := 1.0
	if len(old) > 0 {
		var sum float64
		kept := 0
		for _, port := range ports {
			if i := lastIndex(old, port); i >= 0 {
				sum += old[i].weight
				kept++
			}
		}
		if kept > 0 {
			mean = sum / float64(kept)
		}
	}
	n := len(ports)
	if cap(t.paths) < n {
		t.paths = make([]pathRec, n)
	}
	t.paths = t.paths[:n]
	for j, port := range ports {
		if i := lastIndex(old, port); i >= 0 {
			t.paths[j] = old[i]
		} else {
			t.paths[j] = pathRec{port: port, weight: mean}
		}
	}
	t.normalize()
	restart(t.paths)
}

// lastIndex returns the index of the last path with port, or -1. The last
// one wins, as it would when a duplicated port is keyed in a map.
func lastIndex(paths []pathRec, port uint16) int {
	for i := len(paths) - 1; i >= 0; i-- {
		if paths[i].port == port {
			return i
		}
	}
	return -1
}

// Ports returns the current port set in table order.
func (t *WeightTable) Ports() []uint16 { return (&WRR{paths: t.paths}).Ports() }

// Len reports the number of paths.
func (t *WeightTable) Len() int { return len(t.paths) }

// Weights returns a snapshot map port -> weight.
func (t *WeightTable) Weights() map[uint16]float64 {
	m := make(map[uint16]float64, len(t.paths))
	for _, p := range t.paths {
		m[p.port] = p.weight
	}
	return m
}

// States returns a copy of the per-path state (tests, telemetry).
func (t *WeightTable) States() []PathState {
	var out []PathState
	t.VisitStates(func(p PathState) { out = append(out, p) })
	return out
}

// VisitStates calls fn for every path's state in table order without
// building a slice (the telemetry sampler walks tables every interval).
func (t *WeightTable) VisitStates(fn func(PathState)) {
	for _, p := range t.paths {
		fn(PathState{Port: p.port, Weight: p.weight, LastCongested: p.lastCongested, Util: p.util, UtilAt: p.utilAt})
	}
}

// NextPort returns the next flowlet's port per weighted round-robin.
func (t *WeightTable) NextPort() uint16 { return next(t.paths) }

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
	paths := t.paths
	paths[idx].lastCongested = now
	removed := paths[idx].weight * t.cfg.Beta
	paths[idx].weight -= removed

	// Count the recipients, then pay each its share in table order.
	uncongested := 0
	for i := range paths {
		if i != idx && !t.congested(i, now) {
			uncongested++
		}
	}
	recipients := uncongested
	if recipients == 0 {
		recipients = len(paths) - 1
	}
	if recipients == 0 {
		// Single path: nothing to shift to; restore.
		paths[idx].weight += removed
		return
	}
	share := removed / float64(recipients)
	for i := range paths {
		if i != idx && (uncongested == 0 || !t.congested(i, now)) {
			paths[i].weight += share
		}
	}
	t.normalize()
	restart(paths)
}

// OnFeedback applies one reflected observation at time now: an ECN mark
// through OnCongestion and a path metric through OnUtilization. The two
// touch disjoint state, so their order does not matter. An invalid feedback
// is ignored.
func (t *WeightTable) OnFeedback(fb packet.Feedback, now sim.Time) {
	if !fb.Valid {
		return
	}
	if fb.ECN {
		t.OnCongestion(fb.Port, now)
	}
	if fb.HasUtil {
		t.OnUtilization(fb.Port, fb.Util, now)
	}
}

// OnUtilization records an INT utilization report for port.
func (t *WeightTable) OnUtilization(port uint16, util float64, now sim.Time) {
	if t.cfg.Frozen {
		return
	}
	if idx := t.index(port); idx >= 0 {
		t.paths[idx].util = util
		t.paths[idx].utilAt = now
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
		u := 0.0 // a stale sample counts as idle
		if t.fresh(i, now) {
			anyFresh, u = true, t.paths[i].util
		}
		if u < bestUtil {
			best, bestUtil = i, u
		}
	}
	if !anyFresh {
		return next(t.paths)
	}
	return t.paths[best].port
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
	lc := t.paths[i].lastCongested
	return lc > 0 && now-lc < t.cfg.CongestedAge
}

// fresh reports whether path i has a utilization sample within UtilAge.
func (t *WeightTable) fresh(i int, now sim.Time) bool {
	return t.paths[i].utilAt != 0 && now-t.paths[i].utilAt <= t.cfg.UtilAge
}

func (t *WeightTable) index(port uint16) int {
	for i := range t.paths {
		if t.paths[i].port == port {
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
// no free path falls below the floor.
//
// When the floor itself is infeasible (Floor * len(paths) >= 1, e.g. 64
// paths at the default 0.02) no distribution can satisfy it; the table
// falls back to uniform weights, the closest floor-respecting shape.
func (t *WeightTable) normalize() {
	paths := t.paths
	n := len(paths)
	if n == 0 {
		return
	}
	floor := t.cfg.Floor
	var sum float64 // stays 0 when the floor is infeasible
	if floor*float64(n) < 1 {
		for i := range paths {
			if paths[i].weight < floor {
				paths[i].weight = floor
			}
			paths[i].floored = false
			sum += paths[i].weight
		}
	}
	if sum <= 0 {
		eq := 1.0 / float64(n)
		for i := range paths {
			paths[i].weight = eq
		}
		return
	}
	// Each iteration either converges or pins at least one more path, so the
	// loop runs at most n times. Feasibility (floor*n < 1) guarantees the
	// free paths' target mass always exceeds floor per path on average, so
	// not every path can end up pinned; the defensive break below only
	// triggers under floating-point pathology.
	for iter := 0; iter < n; iter++ {
		nFloored := 0
		sumFree := 0.0
		for i := range paths {
			if paths[i].floored {
				nFloored++
			} else {
				sumFree += paths[i].weight
			}
		}
		target := 1 - floor*float64(nFloored)
		if nFloored == n || sumFree <= 0 {
			break
		}
		changed := false
		for i := range paths {
			if paths[i].floored {
				continue
			}
			w := paths[i].weight * target / sumFree
			if w < floor {
				w = floor
				paths[i].floored = true
				changed = true
			}
			paths[i].weight = w
		}
		if !changed {
			return
		}
	}
}
