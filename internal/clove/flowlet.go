// Package clove implements the scheme-independent building blocks of the
// Clove load balancer (Sec. 3): software flowlet detection, smooth weighted
// round-robin path rotation, the congestion-adaptive path-weight table
// driven by ECN or INT feedback, and the destination's record of what to
// reflect back (PeerPaths). The hypervisor virtual switch in internal/vswitch
// composes these into the full Edge-Flowlet, Clove-ECN and Clove-INT
// schemes, and internal/datapath runs the same feedback loop over sockets.
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
// about twice the network RTT, Fig. 6 explores the sensitivity). The table
// is size-bounded with amortized eviction of idle entries.
type FlowletTable struct {
	gap     sim.Time
	entries map[packet.FiveTuple]*FlowletEntry

	// maxEntries bounds memory; once reached, each insert scans a bounded
	// number of eviction candidates (see evictScan).
	maxEntries int

	// scanQueue holds every live flow's key exactly once, in FIFO order
	// (insertion order, with surviving candidates recycled to the back).
	// scanHead indexes the front; the prefix before it is dead space that
	// compaction reclaims. A deterministic queue — rather than sampling the
	// map, whose iteration order is randomized per process — is what keeps
	// eviction, and therefore flowlet IDs and the whole simulation,
	// reproducible.
	scanQueue []packet.FiveTuple
	scanHead  int

	flowlets int64 // total new flowlets observed
}

// DefaultMaxFlowletEntries bounds the table (paper: order of the number of
// destination hypervisors actively talked to, i.e. small).
const DefaultMaxFlowletEntries = 65536

// evictScanBudget is how many candidate entries one insert examines when the
// table is at capacity. The previous implementation swept the whole map
// inline — an O(maxEntries) stall on a single packet's forwarding path; the
// budget amortizes the same reclamation over inserts while keeping each
// Touch O(1).
const evictScanBudget = 8

// evictIdleGaps is how many flowlet gaps an entry must sit idle before it is
// evictable. Any such entry's next packet starts a new flowlet regardless,
// so eviction never changes path pinning — only the (deterministic) ID
// restart.
const evictIdleGaps = 10

// NewFlowletTable creates a table with the given flowlet inter-packet gap.
func NewFlowletTable(gap sim.Time) *FlowletTable {
	return &FlowletTable{
		gap:        gap,
		entries:    map[packet.FiveTuple]*FlowletEntry{},
		maxEntries: DefaultMaxFlowletEntries,
	}
}

// Gap returns the configured flowlet time gap.
func (t *FlowletTable) Gap() sim.Time { return t.gap }

// SetGap changes the flowlet gap (used by the adaptive-gap extension).
func (t *FlowletTable) SetGap(gap sim.Time) { t.gap = gap }

// SetMaxEntries overrides the capacity bound (tests).
func (t *FlowletTable) SetMaxEntries(n int) { t.maxEntries = n }

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
		if len(t.entries) >= t.maxEntries {
			t.evictScan(now)
		}
		e = &FlowletEntry{lastSeen: now}
		t.entries[flow] = e
		t.scanQueue = append(t.scanQueue, flow)
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

// evictScan examines up to evictScanBudget candidates from the front of the
// FIFO queue, deleting entries idle for more than evictIdleGaps gaps and
// giving live ones a second chance at the back. If nothing in the budget
// qualifies, the table is allowed to grow (correctness over the bound); the
// next inserts keep scanning from where this one stopped.
func (t *FlowletTable) evictScan(now sim.Time) {
	cutoff := now - evictIdleGaps*t.gap
	for i := 0; i < evictScanBudget && t.scanHead < len(t.scanQueue); i++ {
		key := t.scanQueue[t.scanHead]
		t.scanHead++
		e, ok := t.entries[key]
		if !ok {
			continue // already evicted; stale queue slot
		}
		if e.lastSeen < cutoff {
			delete(t.entries, key)
		} else {
			t.scanQueue = append(t.scanQueue, key)
		}
	}
	// Compact the consumed prefix once it dominates the queue, keeping the
	// amortized cost per insert O(1) and the slack memory bounded.
	if t.scanHead > len(t.scanQueue)/2 && t.scanHead > 16 {
		n := copy(t.scanQueue, t.scanQueue[t.scanHead:])
		t.scanQueue = t.scanQueue[:n]
		t.scanHead = 0
	}
}
