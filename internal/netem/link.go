// Package netem emulates the physical datacenter fabric: store-and-forward
// links with drop-tail queues and ECN marking, ECMP switches with per-switch
// hash seeds, DRE link-utilization estimators for INT/CONGA, host NICs, and
// leaf–spine / fat-tree topology builders with link-failure injection.
package netem

import (
	"fmt"

	"clove/internal/packet"
	"clove/internal/sim"
)

// Node is anything that can receive a packet from a link.
type Node interface {
	// ID returns the node's fabric-unique identifier.
	ID() packet.NodeID
	// Receive handles a packet arriving over lk.
	Receive(pkt *packet.Packet, lk *Link)
}

// LinkStats counts what happened on a link since the start of the run.
type LinkStats struct {
	TxPackets int64
	TxBytes   int64
	Drops     int64 // queue-overflow drops
	ECNMarks  int64
	DownDrops int64 // packets dropped because the link was down
}

// Link is a unidirectional link: an egress queue at the sender, a serializer
// at Rate bits/s, and a propagation delay. Bidirectional connectivity is two
// Links. The queue is drop-tail with a packet-count capacity and marks ECN
// when the instantaneous occupancy at enqueue meets the threshold, matching
// the switch-port behaviour Clove assumes (Sec. 3.2).
type Link struct {
	id    packet.LinkID
	name  string
	sim   *sim.Simulator
	from  packet.NodeID
	to    Node
	rate  int64    // bits per second
	delay sim.Time // propagation delay
	// lane and txLanes[i] are sim's lanes for (delay, linkPropagate) and for
	// (a txSizes[i]-byte serialization at rate, linkTxDone); nil past MaxLanes.
	lane    *sim.Lane[Link, packet.Packet]
	txLanes [len(txSizes)]*sim.Lane[Link, packet.Packet]

	queueCap int // packets
	ecnK     int // mark when queued packets >= ecnK at enqueue; 0 disables

	// queue is a ring buffer: qhead is the oldest packet, qlen the
	// occupancy, and slots wrap modulo len(queue). A ring makes dequeue O(1)
	// — the previous slice-shift form paid an O(occupancy) copy() per
	// transmitted packet, which dominated link cost on deep host qdiscs
	// (HostQdiscCap = 1024). The ring starts at initialRing slots (at most
	// queueCap) and an Enqueue that finds it full doubles it, up to
	// queueCap; it never shrinks. Admission still tests qlen against
	// queueCap, so growth is invisible to the simulation, and a link that
	// has reached its peak occupancy enqueues without allocating. Most
	// links never hold more than a few packets, so a fabric's queue memory
	// follows its traffic, not its configured buffer depth.
	queue   []*packet.Packet
	qhead   int
	qlen    int
	sending *packet.Packet // the packet occupying the serializer, if any
	busy    bool
	up      bool
	dre     *DRE // nil unless the topology tracks utilization
	pool    *packet.Pool
	stats   LinkStats
}

// LinkConfig parameterizes a link.
type LinkConfig struct {
	RateBps  int64
	Delay    sim.Time
	QueueCap int // packets; 0 means default (256)
	ECNK     int // ECN marking threshold in packets; 0 disables marking
}

// DefaultQueueCap is the per-port buffer used when LinkConfig.QueueCap is 0.
const DefaultQueueCap = 256

// initialRing is a link ring's starting size in slots, a power of two.
const initialRing = 8

func newLink(s *sim.Simulator, pool *packet.Pool, id packet.LinkID, name string, from packet.NodeID, to Node, cfg LinkConfig) *Link {
	if cfg.QueueCap == 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	l := &Link{
		id:       id,
		name:     name,
		sim:      s,
		pool:     pool,
		from:     from,
		to:       to,
		rate:     cfg.RateBps,
		delay:    cfg.Delay,
		queueCap: cfg.QueueCap,
		ecnK:     cfg.ECNK,
		lane:     sim.LaneFor(s, cfg.Delay, linkPropagate),
		up:       true,
		queue:    make([]*packet.Packet, min(initialRing, cfg.QueueCap)),
	}
	l.setTxLanes()
	return l
}

// fullFrame and ackFrame are the wire sizes of a full TCP segment and of a
// bare ACK without the overlay header.
const (
	fullFrame = packet.InnerHeaderLen + packet.MaxSegment
	ackFrame  = packet.InnerHeaderLen
)

// txSizes are the packet sizes whose serializations wait in lanes: a full
// segment and a bare ACK, each with the overlay header, since the virtual
// switch encapsulates everything it sends onto the fabric. They carry over
// 97 % of a run's serializations (99.2 % on fig 6, 97.5 % on k16); every other
// size (probes, feedback, short segments) is scheduled on the heap.
var txSizes = [...]int{fullFrame + packet.EncapHeaderLen, ackFrame + packet.EncapHeaderLen}

// setTxLanes looks up the serialization lane of each of txSizes at the
// link's current rate.
func (l *Link) setTxLanes() {
	for i, size := range txSizes {
		l.txLanes[i] = sim.LaneFor(l.sim, sim.TransmissionTime(size, l.rate), linkTxDone)
	}
}

// txLane returns the lane a size-byte packet's serialization waits in at the
// link's current rate, or nil when it is scheduled on the heap.
func (l *Link) txLane(size int) *sim.Lane[Link, packet.Packet] {
	for i, sz := range txSizes {
		if sz == size {
			return l.txLanes[i]
		}
	}
	return nil
}

// ID returns the link's fabric-unique identifier.
func (l *Link) ID() packet.LinkID { return l.id }

// Name returns the human-readable name assigned by the topology builder.
func (l *Link) Name() string { return l.name }

// To returns the receiving node.
func (l *Link) To() Node { return l.to }

// From returns the sending node's ID.
func (l *Link) From() packet.NodeID { return l.from }

// RateBps returns the link rate in bits per second.
func (l *Link) RateBps() int64 { return l.rate }

// Delay returns the propagation delay.
func (l *Link) Delay() sim.Time { return l.delay }

// Up reports whether the link is administratively up.
func (l *Link) Up() bool { return l.up }

// SetRateBps changes the link rate (scenario speed downgrades: a negotiated
// 40G->10G step-down, a failing optic). The new rate applies from the next
// serialization, which waits in the new rate's lanes; the packet currently on
// the serializer keeps the timing it was scheduled with. The DRE capacity
// follows so utilization stays normalized to the current rate.
func (l *Link) SetRateBps(rate int64) {
	if rate <= 0 {
		panic(fmt.Sprintf("netem: link rate %d", rate))
	}
	l.rate = rate
	l.setTxLanes()
	if l.dre != nil {
		l.dre.SetRate(rate)
	}
}

// QueueLen returns the instantaneous number of queued packets (not counting
// the one currently serializing).
func (l *Link) QueueLen() int { return l.qlen }

// Stats returns a snapshot of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// Utilization returns the DRE-estimated egress utilization in [0, ~1.1]. It
// panics on a link whose topology does not track utilization.
func (l *Link) Utilization() float64 {
	if l.dre == nil {
		panic(fmt.Sprintf("netem: %s: utilization read, but the topology does not track it", l))
	}
	return l.dre.Utilization()
}

// SetUp changes the administrative state. Taking a link down drops the
// queue contents and everything sent while down; bringing it back up starts
// clean.
func (l *Link) SetUp(up bool) {
	if l.up == up {
		return
	}
	l.up = up
	if o := l.pool.Obs(); o != nil {
		o.LinkSetUp(l.id, up)
	}
	if !up {
		n := l.qlen
		l.stats.DownDrops += int64(n)
		for i := 0; i < n; i++ {
			idx := l.qhead + i
			if idx >= len(l.queue) {
				idx -= len(l.queue)
			}
			pkt := l.queue[idx]
			l.queue[idx] = nil
			if o := l.pool.Obs(); o != nil {
				o.LinkDrop(l.id, pkt, packet.DropLinkDown, n, l.queueCap)
			}
			l.pool.Put(pkt)
		}
		l.qhead, l.qlen = 0, 0
		// The packet currently serializing (if any) is lost too; the busy
		// flag is cleared when its tx timer fires and finds the link down.
	}
}

// Enqueue offers a packet to the link. It applies ECN marking and drop-tail
// policy, then starts the serializer if idle.
func (l *Link) Enqueue(pkt *packet.Packet) {
	if !l.up {
		l.stats.DownDrops++
		if o := l.pool.Obs(); o != nil {
			o.LinkDrop(l.id, pkt, packet.DropLinkDown, l.qlen, l.queueCap)
		}
		l.pool.Put(pkt)
		return
	}
	if l.qlen >= l.queueCap {
		l.stats.Drops++
		if o := l.pool.Obs(); o != nil {
			o.LinkDrop(l.id, pkt, packet.DropQueueFull, l.qlen, l.queueCap)
		}
		l.pool.Put(pkt)
		return
	}
	marked := false
	if l.ecnK > 0 && l.qlen >= l.ecnK {
		if pkt.MarkCE() {
			l.stats.ECNMarks++
			marked = true
		}
	}
	if o := l.pool.Obs(); o != nil {
		o.LinkEnqueue(l.id, pkt, l.qlen, l.queueCap, l.ecnK, marked)
	}
	if l.qlen == len(l.queue) {
		l.grow()
	}
	idx := l.qhead + l.qlen
	if idx >= len(l.queue) {
		idx -= len(l.queue)
	}
	l.queue[idx] = pkt
	l.qlen++
	if !l.busy {
		l.transmitNext()
	}
}

// grow doubles the full ring, capped at queueCap, and copies it unwrapped so
// the oldest packet lands in slot 0.
func (l *Link) grow() {
	q := make([]*packet.Packet, min(2*len(l.queue), l.queueCap))
	n := copy(q, l.queue[l.qhead:])
	copy(q[n:], l.queue[:l.qhead])
	l.queue, l.qhead = q, 0
}

// linkTxDone and linkPropagate are the callbacks of the two per-packet-hop
// events, with the link and packet passed as operands: the lanes' callbacks,
// so a forwarded hop schedules zero allocations. txDoneEvent and
// propagateEvent are their EventFunc forms, for a completion on the heap.
func linkTxDone(l *Link, _ *packet.Packet) { l.txDone() }

func txDoneEvent(a, _ any) { a.(*Link).txDone() }

func propagateEvent(a, b any) { linkPropagate(a.(*Link), b.(*packet.Packet)) }

// linkPropagate delivers a packet at the far end once its propagation delay
// has elapsed.
func linkPropagate(l *Link, pkt *packet.Packet) {
	if l.up {
		if o := l.pool.Obs(); o != nil {
			o.LinkDeliver(l.id, pkt)
		}
		l.to.Receive(pkt, l)
		return
	}
	l.stats.DownDrops++
	if o := l.pool.Obs(); o != nil {
		o.LinkDrop(l.id, pkt, packet.DropLinkDown, l.qlen, l.queueCap)
	}
	l.pool.Put(pkt)
}

func (l *Link) transmitNext() {
	if l.qlen == 0 || !l.up {
		l.busy = false
		return
	}
	pkt := l.queue[l.qhead]
	l.queue[l.qhead] = nil
	l.qhead++
	if l.qhead == len(l.queue) {
		l.qhead = 0
	}
	l.qlen--

	l.busy = true
	size := pkt.Size()
	l.stats.TxPackets++
	l.stats.TxBytes += int64(size)
	if l.dre != nil {
		l.dre.Add(size)
	}

	// Serializer occupies the link for the packet's transmission time; the
	// packet lands after that plus the propagation delay. A txDone is never
	// cancelled, so one of a common size waits in the lane for its
	// transmission time; any other size is scheduled on the heap.
	l.sending = pkt
	if ln := l.txLane(size); ln != nil {
		ln.Call(l, nil)
		return
	}
	l.sim.AfterCall(sim.TransmissionTime(size, l.rate), txDoneEvent, l, nil)
}

// txDone fires when the serializer finishes: hand the packet to the
// propagation stage and start on the next queued packet. The propagation
// event is scheduled before transmitNext so the event-sequence order is
// identical to the nested-closure formulation this replaced. A wire is a
// FIFO with one delay, so a propagation waits in the simulator's lane for
// that delay rather than in the event heap (in the heap only when the delay
// found no lane under sim.MaxLanes).
func (l *Link) txDone() {
	pkt := l.sending
	l.sending = nil
	if l.up && l.lane != nil {
		l.lane.Call(l, pkt)
	} else if l.up {
		l.sim.AfterCall(l.delay, propagateEvent, l, pkt)
	} else {
		l.stats.DownDrops++
		if o := l.pool.Obs(); o != nil {
			o.LinkDrop(l.id, pkt, packet.DropLinkDown, l.qlen, l.queueCap)
		}
		l.pool.Put(pkt)
	}
	l.transmitNext()
}

// String implements fmt.Stringer.
func (l *Link) String() string {
	return fmt.Sprintf("link %d (%s)", l.id, l.name)
}
