// Package vswitch implements the hypervisor virtual switch: overlay
// encapsulation and decapsulation, software flowlet switching, ECN/INT
// feedback reflection between hypervisors, ECN masking from tenant VMs, and
// the pluggable path-selection policies: ECMP, Edge-Flowlet, Clove-ECN,
// Clove-INT (which also serves Clove-Latency) and Presto from the paper,
// Concury and Charon beyond it, and the reference twins that differential
// tests run against them (CloveUniform, ConcuryRef, CharonRef).
package vswitch

import (
	"clove/internal/packet"
	"clove/internal/sim"
)

// PathPolicy is a load-balancing scheme plugged into the source-side
// virtual switch. Implementations choose the encapsulation source port —
// the only steering knob an edge scheme has over an ECMP fabric.
type PathPolicy interface {
	// Name identifies the scheme ("ecmp", "clove-ecn", ...).
	Name() string
	// PickPort returns the encap source port for a new flowlet of flow
	// toward the destination hypervisor dst.
	PickPort(dst packet.HostID, flow packet.FiveTuple, flowletID uint32) uint16
	// OnFeedback delivers a reflected path observation for a path toward
	// dst (Feedback.Port identifies the path).
	OnFeedback(dst packet.HostID, fb packet.Feedback, now sim.Time)
	// SetPaths installs the discovered encap source ports for dst,
	// replacing any previously installed set.
	//
	// An empty (or nil) list withdraws the path set. After a withdrawal
	// the policy must behave as it did before discovery: it never panics,
	// never starts a new flowlet (or flowcell) on a withdrawn port, and
	// picks by its pre-discovery hashing instead; AllCongested reports
	// false; and OnFeedback for the withdrawn ports is accepted and
	// ignored. A later non-empty SetPaths re-installs normally. In-flight
	// flowlets are outside the policy's hands (the vswitch pins them), so
	// only new picks are constrained. (Discovery never installs an empty
	// set today, but scenario scripts can kill every path to a
	// destination, and the policies must agree on what that means —
	// TestSetPathsEmptyContract pins each one.)
	SetPaths(dst packet.HostID, ports []uint16)
	// AllCongested reports whether every known path toward dst currently
	// has fresh congestion feedback (drives ECN un-masking).
	AllCongested(dst packet.HostID, now sim.Time) bool
}

// perPacketPolicy is implemented by schemes that decide per packet rather
// than per flowlet (Presto's fixed-size flowcells).
type perPacketPolicy interface {
	// PickPortPacket is called for every outgoing packet; payloadLen lets
	// the policy count flowcell bytes.
	PickPortPacket(dst packet.HostID, flow packet.FiveTuple, payloadLen int) uint16
}

// receiverHook is implemented by schemes that intercept inbound inner
// packets before VM delivery (Presto's flowcell reassembly).
type receiverHook interface {
	// OnDeliver may deliver pkt now, buffer it, or deliver several packets.
	OnDeliver(pkt *packet.Packet, deliver func(*packet.Packet))
}

// portHash maps a flow (plus an optional flowlet discriminator) onto the
// ephemeral port range. It reuses FNV-1a so that, like a real
// implementation, the mapping is stable and spreads well.
func portHash(flow packet.FiveTuple, salt uint32) uint16 {
	h := packet.FNVMix(flow.FoldFNV(packet.FNVOffset), uint64(salt))
	// Ephemeral range 32768..65535.
	return uint16(32768 + h%32768)
}

// ECMP is the baseline scheme (Sec. 5): the outer source port is a static
// hash of the inner 5-tuple, so every flow is pinned to one path for its
// lifetime, congestion-obliviously.
type ECMP struct{}

// NewECMP returns the baseline policy.
func NewECMP() *ECMP { return &ECMP{} }

// Name implements PathPolicy.
func (*ECMP) Name() string { return "ecmp" }

// PickPort implements PathPolicy: static per-flow hash, flowlet-invariant.
func (*ECMP) PickPort(_ packet.HostID, flow packet.FiveTuple, _ uint32) uint16 {
	return portHash(flow, 0)
}

// OnFeedback implements PathPolicy (ignored: congestion-oblivious).
func (*ECMP) OnFeedback(packet.HostID, packet.Feedback, sim.Time) {}

// SetPaths implements PathPolicy (ECMP does not use discovered paths).
func (*ECMP) SetPaths(packet.HostID, []uint16) {}

// AllCongested implements PathPolicy; ECMP never masks ECN, so this is
// irrelevant and reports false.
func (*ECMP) AllCongested(packet.HostID, sim.Time) bool { return false }

// EdgeFlowlet is the congestion-oblivious flowlet scheme (Sec. 3.2): a new
// outer source port per flowlet, chosen by hashing the 6-tuple of flow plus
// flowlet ID — the testbed implementation of Sec. 5.
type EdgeFlowlet struct{}

// NewEdgeFlowlet returns the Edge-Flowlet policy.
func NewEdgeFlowlet() *EdgeFlowlet { return &EdgeFlowlet{} }

// Name implements PathPolicy.
func (*EdgeFlowlet) Name() string { return "edge-flowlet" }

// PickPort implements PathPolicy: rehash per flowlet.
func (*EdgeFlowlet) PickPort(_ packet.HostID, flow packet.FiveTuple, flowletID uint32) uint16 {
	return portHash(flow, flowletID+1)
}

// OnFeedback implements PathPolicy (ignored: congestion-oblivious).
func (*EdgeFlowlet) OnFeedback(packet.HostID, packet.Feedback, sim.Time) {}

// SetPaths implements PathPolicy (not needed: any port maps to some path).
func (*EdgeFlowlet) SetPaths(packet.HostID, []uint16) {}

// AllCongested implements PathPolicy.
func (*EdgeFlowlet) AllCongested(packet.HostID, sim.Time) bool { return false }
