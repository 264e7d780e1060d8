package vswitch

import (
	"slices"

	"clove/internal/clove"
	"clove/internal/packet"
	"clove/internal/sim"
)

// weightTables is the per-destination weight-table plumbing CloveECN and
// CloveINT share: the tables, their deterministic iteration order, and the
// PathPolicy methods that do not depend on how a port is picked. Every
// table reads the policy's one config.
type weightTables struct {
	cfg    clove.WeightTableConfig
	dsts   []packet.HostID      // ascending, searched by bisection
	tables []*clove.WeightTable // index for index with dsts
}

// Table returns the weight table for dst (nil before discovery) — exposed
// for tests and telemetry.
func (w *weightTables) Table(dst packet.HostID) *clove.WeightTable {
	if i, ok := slices.BinarySearch(w.dsts, dst); ok {
		return w.tables[i]
	}
	return nil
}

// VisitTables calls fn for every destination's weight table in ascending
// HostID order, so telemetry samples in the same order in every process.
func (w *weightTables) VisitTables(fn func(packet.HostID, *clove.WeightTable)) {
	for i, d := range w.dsts {
		fn(d, w.tables[i])
	}
}

// SetPaths implements PathPolicy, preserving state across rediscovery.
func (w *weightTables) SetPaths(dst packet.HostID, ports []uint16) {
	i, ok := slices.BinarySearch(w.dsts, dst)
	if ok {
		w.tables[i].SetPorts(ports)
		return
	}
	w.dsts = slices.Insert(w.dsts, i, dst)
	w.tables = slices.Insert(w.tables, i, clove.NewSharedWeightTable(&w.cfg, ports))
}

// OnFeedback implements PathPolicy: the destination's table applies the
// reflected ECN mark and path metric.
func (w *weightTables) OnFeedback(dst packet.HostID, fb packet.Feedback, now sim.Time) {
	if t := w.Table(dst); t != nil {
		t.OnFeedback(fb, now)
	}
}

// AllCongested implements PathPolicy.
func (w *weightTables) AllCongested(dst packet.HostID, now sim.Time) bool {
	t := w.Table(dst)
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
	return &CloveECN{weightTables{cfg: cfg}}
}

// Name implements PathPolicy.
func (*CloveECN) Name() string { return "clove-ecn" }

// PickPort implements PathPolicy: weighted round-robin across discovered
// paths. Before discovery completes it degrades to Edge-Flowlet behaviour
// so traffic keeps flowing.
func (c *CloveECN) PickPort(dst packet.HostID, flow packet.FiveTuple, flowletID uint32) uint16 {
	t := c.Table(dst)
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
	return &CloveINT{weightTables: weightTables{cfg: cfg}, now: now}
}

// Name implements PathPolicy.
func (*CloveINT) Name() string { return "clove-int" }

// PickPort implements PathPolicy: least utilized discovered path.
func (c *CloveINT) PickPort(dst packet.HostID, flow packet.FiveTuple, flowletID uint32) uint16 {
	t := c.Table(dst)
	if t == nil || t.Len() == 0 {
		return portHash(flow, flowletID+1)
	}
	return t.LeastUtilizedPort(c.now())
}
