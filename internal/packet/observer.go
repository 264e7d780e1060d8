package packet

// DropReason classifies why the datapath discarded a packet.
type DropReason uint8

// Drop reasons reported through Observer.LinkDrop.
const (
	// DropQueueFull is a drop-tail discard: the egress queue was at
	// capacity when the packet arrived.
	DropQueueFull DropReason = iota
	// DropLinkDown is a discard because the link was administratively down
	// (at enqueue, at serialization end, at propagation end, or when a
	// queue is flushed by SetUp(false)).
	DropLinkDown
)

// Observer receives datapath events from every component that shares a Pool:
// the pool itself, links, host NICs, TCP endpoints, and virtual switches.
// It is the hook contract the opt-in correctness oracle (internal/oracle)
// implements; production runs leave it nil.
//
// The contract at every hook site is:
//
//   - The call happens synchronously at the point the event occurs, before
//     the component acts on its outcome (a Put hook fires before the struct
//     is zeroed, an enqueue hook before the packet joins the queue).
//   - The observer may read the packet but must not retain, mutate, or
//     release it — observation must never perturb the simulation, so a run
//     with an observer installed is byte-identical to one without.
//   - Hook sites guard with a nil check (`if o := pool.Obs(); o != nil`),
//     so a disabled observer costs one predictable branch and no
//     allocations on the hot path.
//
// Implementations live outside the packet package; the interface lives here
// because packet is the one package every datapath component already
// imports, so distributing the observer through Pool creates no new
// dependency edges.
type Observer interface {
	// PoolGet fires when the pool issues a packet (fresh or recycled).
	PoolGet(pkt *Packet)
	// PoolPut fires when a packet is released, before it is zeroed.
	PoolPut(pkt *Packet)

	// LinkSetUp fires on every administrative state change of a link.
	// Links start up; the observer may assume unknown links are up.
	LinkSetUp(link LinkID, up bool)
	// LinkEnqueue fires when a packet is accepted into a link's egress
	// queue. qlenBefore is the occupancy the packet saw on arrival,
	// queueCap the drop-tail capacity, ecnK the marking threshold
	// (0 = disabled), and marked whether this enqueue CE-marked the packet.
	LinkEnqueue(link LinkID, pkt *Packet, qlenBefore, queueCap, ecnK int, marked bool)
	// LinkDrop fires when a link discards a packet, immediately before the
	// link releases it to the pool.
	LinkDrop(link LinkID, pkt *Packet, reason DropReason, qlenBefore, queueCap int)
	// LinkDeliver fires when a packet finishes propagation and is about to
	// be handed to the receiving node.
	LinkDeliver(link LinkID, pkt *Packet)

	// HostDeliver fires when a host NIC receives a packet from the fabric,
	// before the hypervisor delivery callback runs.
	HostDeliver(host HostID, pkt *Packet)

	// StreamSent fires when a TCP sender emits the inner byte range
	// [seq, end) of flow; rexmit marks retransmissions. h is the handle the
	// sender stamps on the segment (0 if none).
	StreamSent(flow FiveTuple, h FlowHandle, seq, end int64, rexmit bool)
	// StreamDeliver fires when a TCP receiver of flow advances its in-order
	// delivery point from `from` to `to` (half-open byte range); h is the
	// handle of the segment that advanced it.
	StreamDeliver(flow FiveTuple, h FlowHandle, from, to int64)

	// FlowletPick fires when a source vswitch assigns an outer source port
	// to a packet of (flow, flowletID); h is the packet's handle. Per-packet
	// policies (Presto flowcells) do not report here.
	FlowletPick(flow FiveTuple, h FlowHandle, flowletID uint32, port uint16)

	// PolicyPaths fires when a path set is installed into (or withdrawn
	// from, ports empty) the source hypervisor src's policy for
	// destination dst — the control-plane side of the data-plane picks
	// FlowletPick reports. The observer must copy ports if it retains
	// them; the slice belongs to the caller.
	PolicyPaths(src, dst HostID, ports []uint16)
}
