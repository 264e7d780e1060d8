package netem

import (
	"fmt"

	"clove/internal/packet"
)

// Host is a physical server's NIC attachment: one uplink to its leaf switch
// and a delivery callback into the hypervisor virtual switch. The tenant VM
// and the vswitch live above this in internal/vswitch.
type Host struct {
	id     packet.NodeID
	hostID packet.HostID
	name   string
	uplink *Link // host -> leaf
	// down holds the leaf -> host link, the host's one inbound link; down[:]
	// is the leaf's one-element next-hop set toward the host.
	down [1]*Link
	pool *packet.Pool

	// Deliver is invoked for every packet arriving at the NIC. The vswitch
	// installs itself here. Packets arriving before installation are counted
	// and dropped.
	Deliver func(pkt *packet.Packet)

	undelivered int64
	rxPackets   int64
}

// ID implements Node.
func (h *Host) ID() packet.NodeID { return h.id }

// HostID returns the host's fabric address (what routing targets).
func (h *Host) HostID() packet.HostID { return h.hostID }

// Name returns the builder-assigned name (e.g. "h3").
func (h *Host) Name() string { return h.name }

// Uplink returns the host->leaf link (the NIC egress).
func (h *Host) Uplink() *Link { return h.uplink }

// Downlink returns the leaf's link toward the host: the last hop of every
// path that reaches it.
func (h *Host) Downlink() *Link { return h.down[0] }

// Pool returns the packet free list everything on this host draws from: the
// topology's one pool (Topology.Pool).
func (h *Host) Pool() *packet.Pool { return h.pool }

// RxPackets reports packets delivered to this host.
func (h *Host) RxPackets() int64 { return h.rxPackets }

// Send transmits a packet out the NIC.
func (h *Host) Send(pkt *packet.Packet) { h.uplink.Enqueue(pkt) }

// Receive implements Node.
func (h *Host) Receive(pkt *packet.Packet, _ *Link) {
	h.rxPackets++
	if o := h.pool.Obs(); o != nil {
		o.HostDeliver(h.hostID, pkt)
	}
	if h.Deliver == nil {
		h.undelivered++
		h.pool.Put(pkt)
		return
	}
	h.Deliver(pkt)
}

// String implements fmt.Stringer.
func (h *Host) String() string { return fmt.Sprintf("host %s(%d)", h.name, h.hostID) }
