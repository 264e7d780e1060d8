// Package clove implements the scheme-independent building blocks of the
// Clove load balancer (Sec. 3): software flowlet detection (one entry per
// flow, never evicted), smooth weighted round-robin path rotation, the
// congestion-adaptive path-weight table driven by ECN or INT feedback, and
// the destination's record of what to reflect back (PeerPaths). The
// hypervisor virtual switch in internal/vswitch composes these into the full
// Edge-Flowlet, Clove-ECN and Clove-INT schemes, and internal/datapath runs
// the same feedback loop over sockets.
package clove

import (
	"clove/internal/packet"
	"clove/internal/sim"
)

// FlowletEntry is the per-flow state the virtual switch keeps to pin all
// packets of a flowlet to one path (encap source port).
type FlowletEntry struct {
	lastSeen sim.Time
	// Port is the encap source port this flowlet is pinned to. The caller
	// sets it when Touch reports a new flowlet.
	Port uint16
	// ID increments on every new flowlet of the flow.
	ID uint32
	// LastGap is the idle gap that started the current flowlet (0 for the
	// first flowlet of a flow). Telemetry reads it when a new flowlet closes
	// the previous one.
	LastGap sim.Time
	// Packets and Bytes count the current flowlet's traffic. The table does
	// not reset them on a new flowlet: the caller owns them (the vswitch
	// reports the finished flowlet's size to telemetry, then zeroes them).
	Packets int64
	Bytes   int64
}

// FlowletTable detects flowlet boundaries: a new flowlet starts when a
// flow's inter-packet gap exceeds the configured gap (Sec. 3.2 recommends
// about twice the network RTT, Fig. 6 explores the sensitivity). It keeps
// one entry per flow its owner (a vswitch, or a CONGA or LetFlow switch)
// has forwarded and evicts none, so its size follows the connections that
// cross the owner. An idle flow's next packet starts a new flowlet on its
// own entry, with the next ID.
type FlowletTable struct {
	gap      sim.Time
	entries  map[packet.FiveTuple]*FlowletEntry
	flowlets int64 // total new flowlets observed
}

// NewFlowletTable creates a table with the given flowlet inter-packet gap.
func NewFlowletTable(gap sim.Time) *FlowletTable {
	return &FlowletTable{gap: gap, entries: map[packet.FiveTuple]*FlowletEntry{}}
}

// Gap returns the configured flowlet time gap.
func (t *FlowletTable) Gap() sim.Time { return t.gap }

// SetGap changes the flowlet gap (used by the adaptive-gap extension).
func (t *FlowletTable) SetGap(gap sim.Time) { t.gap = gap }

// Flowlets reports the total number of flowlet starts observed.
func (t *FlowletTable) Flowlets() int64 { return t.flowlets }

// Len reports the number of tracked flows.
func (t *FlowletTable) Len() int { return len(t.entries) }

// Touch records a packet of flow at time now. It returns the flow's entry
// and whether this packet starts a new flowlet (first packet of the flow, or
// idle gap exceeded). On a new flowlet the caller must choose and store the
// entry's Port; on a continuing flowlet the stored Port must be reused —
// that invariant is what keeps flowlets in order on a single path.
func (t *FlowletTable) Touch(flow packet.FiveTuple, now sim.Time) (e *FlowletEntry, isNew bool) {
	e, ok := t.entries[flow]
	if !ok {
		e = &FlowletEntry{lastSeen: now}
		t.entries[flow] = e
		t.flowlets++
		return e, true
	}
	idle := now - e.lastSeen
	e.lastSeen = now
	if idle > t.gap {
		e.ID++
		e.LastGap = idle
		t.flowlets++
		return e, true
	}
	return e, false
}
