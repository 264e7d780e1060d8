package vswitch

import (
	"clove/internal/clove"
	"clove/internal/packet"
)

// Flows is the per-flow state of one fabric's connections, indexed by flow
// handle (packet.FlowHandle) and shared by every virtual switch of the
// fabric (Config.Flows). A packet's handle is stamped by the TCP endpoint
// that sends it, so the source vswitch finds the flow's flowlet entry, and
// the destination vswitch its endpoint and its record of the sender, with
// two indexed loads and no hashing.
//
// Ownership: each direction's slot has exactly one writer per field. The
// vswitch that sends the direction owns the flowlet entry; the one that
// receives it owns the endpoint (set by Open) and the peer cache. A slot is
// never freed or moved, so a handle, and a pointer to its slot, stays valid
// for the fabric's lifetime and names the same direction for the whole run.
// The table grows only in Open, one pair of slots per connection (per MPTCP
// subflow), in pages that are never copied, so its size follows the
// connections whose transport was built and not the host count.
type Flows struct {
	pages []*[flowPageLen]flowSlot
	n     int // slots issued, the two reserved ones included
}

// A page holds 512 slots: 45,056 bytes, exactly eleven 4 KiB pages.
const (
	flowPageBits = 9
	flowPageLen  = 1 << flowPageBits
)

// flowSlot is one direction of one connection.
type flowSlot struct {
	// ep handles the direction's packets at its destination vswitch.
	ep endpoint
	// flowlet is the direction's flowlet state at its source vswitch.
	flowlet clove.FlowletEntry
	// peer caches the destination vswitch's record of the source host. A
	// nil peer is trusted only while peerGen equals the number of records
	// that vswitch has made; after it makes another, the next use looks
	// again (VSwitch.cachedPeer).
	peer    *peer
	peerGen int32
}

// slot returns h's slot; h must have been issued by Open.
func (f *Flows) slot(h packet.FlowHandle) *flowSlot {
	return &f.pages[h>>flowPageBits][h&(flowPageLen-1)]
}

// Open adds a connection's two directions and returns their handles. fwd's
// packets are handed to fwdFn(fwdA, pkt) at fwd's destination, and rev's to
// revFn(revA, pkt) at rev's; rev must be fwd reversed (a TCP connection's
// data and ACK directions), because a vswitch sending on one direction
// reads its record of the peer through the other's slot. Handles come in
// pairs, rev = fwd^1, and 0 and 1 are never issued: 0 means no handle.
func (f *Flows) Open(fwdFn EndpointFunc, fwdA any, revFn EndpointFunc, revA any) (fwd, rev packet.FlowHandle) {
	if f.n == 0 {
		f.n = 2
	}
	if f.n >= len(f.pages)*flowPageLen {
		f.pages = append(f.pages, new([flowPageLen]flowSlot))
	}
	fwd, rev = packet.FlowHandle(f.n), packet.FlowHandle(f.n+1)
	f.n += 2
	*f.slot(fwd) = flowSlot{ep: endpoint{fwdFn, fwdA}}
	*f.slot(rev) = flowSlot{ep: endpoint{revFn, revA}}
	return fwd, rev
}

// Len reports how many directions are open.
func (f *Flows) Len() int { return max(f.n-2, 0) }
