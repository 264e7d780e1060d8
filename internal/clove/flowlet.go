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
// packets of a flowlet to one path (encap source port). The zero value is a
// flow not yet seen.
type FlowletEntry struct {
	lastSeen sim.Time
	// Port is the encap source port this flowlet is pinned to. The caller
	// sets it when Touch reports a new flowlet.
	Port uint16
	// seen is set by the flow's first touch.
	seen bool
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
// about twice the network RTT, Fig. 6 explores the sensitivity). The table
// evicts no entry: its owner stores them, and drops them when it sees fit
// (Expired).
// An idle flow's next packet starts a new flowlet on its own entry, with
// the next ID.
//
// TouchEntry takes an entry the caller stores by value: the virtual switch
// keeps each connection's entry in the fabric's flow table (vswitch.Flows),
// reached through the packet's flow handle, and a CONGA or LetFlow switch
// keeps its pins beside their links, so neither hashes a tuple. Touch finds
// the entry by five-tuple in the table's own map, one heap object per flow;
// only the package's tests and the benchmark's flowlet micro-measurement
// call it, so the map is made on the first Touch, and a table that only
// serves TouchEntry is its three words, held by value by its owner.
//
// The zero FlowletTable is ready to use, with a zero gap (SetGap).
type FlowletTable struct {
	gap      sim.Time
	entries  map[packet.FiveTuple]*FlowletEntry // Touch's entries; nil until the first Touch
	flowlets int64                              // total new flowlets observed
}

// NewFlowletTable creates a table with the given flowlet inter-packet gap.
func NewFlowletTable(gap sim.Time) *FlowletTable {
	return &FlowletTable{gap: gap}
}

// Gap returns the configured flowlet time gap.
func (t *FlowletTable) Gap() sim.Time { return t.gap }

// SetGap sets the flowlet gap: an owner holding the table by value sets it
// once, and the adaptive-gap extension changes it.
func (t *FlowletTable) SetGap(gap sim.Time) { t.gap = gap }

// Flowlets reports the total number of flowlet starts observed, through
// Touch and TouchEntry alike.
func (t *FlowletTable) Flowlets() int64 { return t.flowlets }

// Len reports the number of flows Touch has seen.
func (t *FlowletTable) Len() int { return len(t.entries) }

// Touch records a packet of flow at time now. It returns the flow's entry
// and whether this packet starts a new flowlet (first packet of the flow, or
// idle gap exceeded). On a new flowlet the caller must choose and store the
// entry's Port; on a continuing flowlet the stored Port must be reused —
// that invariant is what keeps flowlets in order on a single path.
func (t *FlowletTable) Touch(flow packet.FiveTuple, now sim.Time) (e *FlowletEntry, isNew bool) {
	e = t.entries[flow]
	if e == nil {
		if t.entries == nil {
			t.entries = map[packet.FiveTuple]*FlowletEntry{}
		}
		e = &FlowletEntry{}
		t.entries[flow] = e
	}
	return e, t.TouchEntry(e, now)
}

// Expired reports whether e's flowlet has ended at now: the entry has been
// touched, but not within the gap. Its next touch starts a new flowlet, as
// the first touch of a zero entry does.
func (t *FlowletTable) Expired(e *FlowletEntry, now sim.Time) bool {
	return e.seen && now-e.lastSeen > t.gap
}

// TouchEntry is Touch for an entry the caller stores (a zero entry is a
// flow not yet seen): it records a packet at now, under this table's gap,
// and reports whether the packet starts a new flowlet.
func (t *FlowletTable) TouchEntry(e *FlowletEntry, now sim.Time) (isNew bool) {
	idle := now - e.lastSeen
	e.lastSeen = now
	if e.seen && idle <= t.gap {
		return false
	}
	if e.seen {
		e.ID++
		e.LastGap = idle
	}
	e.seen = true
	t.flowlets++
	return true
}
