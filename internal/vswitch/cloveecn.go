package vswitch

import (
	"sort"

	"clove/internal/clove"
	"clove/internal/packet"
	"clove/internal/sim"
)

// weightTables is the per-destination weight-table plumbing CloveECN and
// CloveINT share: the tables, their deterministic iteration order, and the
// PathPolicy methods that do not depend on how a port is picked.
type weightTables struct {
	cfg    clove.WeightTableConfig
	tables map[packet.HostID]*clove.WeightTable
	dsts   []packet.HostID // table keys, ascending (deterministic iteration)
}

func newWeightTables(cfg clove.WeightTableConfig) weightTables {
	return weightTables{cfg: cfg, tables: map[packet.HostID]*clove.WeightTable{}}
}

// Table returns the weight table for dst (nil before discovery) — exposed
// for tests and telemetry.
func (w *weightTables) Table(dst packet.HostID) *clove.WeightTable { return w.tables[dst] }

// VisitTables calls fn for every destination's weight table in ascending
// HostID order. The telemetry sampler walks tables every interval; iterating
// the map directly would randomize sample order per process.
func (w *weightTables) VisitTables(fn func(packet.HostID, *clove.WeightTable)) {
	for _, d := range w.dsts {
		fn(d, w.tables[d])
	}
}

// SetPaths implements PathPolicy, preserving state across rediscovery.
func (w *weightTables) SetPaths(dst packet.HostID, ports []uint16) {
	if t := w.tables[dst]; t != nil {
		t.SetPorts(ports)
		return
	}
	w.tables[dst] = clove.NewWeightTable(w.cfg, ports)
	i := sort.Search(len(w.dsts), func(i int) bool { return w.dsts[i] >= dst })
	w.dsts = append(w.dsts, 0)
	copy(w.dsts[i+1:], w.dsts[i:])
	w.dsts[i] = dst
}

// OnFeedback implements PathPolicy: the destination's table applies the
// reflected ECN mark and path metric.
func (w *weightTables) OnFeedback(dst packet.HostID, fb packet.Feedback, now sim.Time) {
	if t := w.tables[dst]; t != nil {
		t.OnFeedback(fb, now)
	}
}

// AllCongested implements PathPolicy.
func (w *weightTables) AllCongested(dst packet.HostID, now sim.Time) bool {
	t := w.tables[dst]
	return t != nil && t.AllCongested(now)
}

// CloveECN is the paper's primary deployable scheme (Sec. 3.2): weighted
// round-robin over discovered paths, with path weights reduced on ECN
// feedback and the remainder redistributed to uncongested paths.
type CloveECN struct {
	weightTables
}

// NewCloveECN creates the policy; cfg controls the weight-adjustment rule.
func NewCloveECN(cfg clove.WeightTableConfig) *CloveECN {
	return &CloveECN{newWeightTables(cfg)}
}

// Name implements PathPolicy.
func (*CloveECN) Name() string { return "clove-ecn" }

// PickPort implements PathPolicy: weighted round-robin across discovered
// paths. Before discovery completes it degrades to Edge-Flowlet behaviour
// so traffic keeps flowing.
func (c *CloveECN) PickPort(dst packet.HostID, flow packet.FiveTuple, flowletID uint32) uint16 {
	t := c.tables[dst]
	if t == nil || t.Len() == 0 {
		return portHash(flow, flowletID+1)
	}
	return t.NextPort()
}

// CloveINT is the forward-looking variant (Sec. 3.2): the destination
// reflects INT-measured maximum path utilization, and new flowlets go to
// the least-utilized path.
type CloveINT struct {
	weightTables
	now func() sim.Time
}

// NewCloveINT creates the policy. now provides the simulation clock (the
// least-utilized choice needs sample freshness).
func NewCloveINT(cfg clove.WeightTableConfig, now func() sim.Time) *CloveINT {
	return &CloveINT{weightTables: newWeightTables(cfg), now: now}
}

// Name implements PathPolicy.
func (*CloveINT) Name() string { return "clove-int" }

// PickPort implements PathPolicy: least utilized discovered path.
func (c *CloveINT) PickPort(dst packet.HostID, flow packet.FiveTuple, flowletID uint32) uint16 {
	t := c.tables[dst]
	if t == nil || t.Len() == 0 {
		return portHash(flow, flowletID+1)
	}
	return t.LeastUtilizedPort(c.now())
}
