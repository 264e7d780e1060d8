package vswitch

import (
	"sort"

	"clove/internal/clove"
	"clove/internal/packet"
	"clove/internal/sim"
)

// PrestoFlowcellBytes is the flow segment size Presto sprays independently
// (the paper adapts Presto to route 64KB TSO segments over ECMP, Sec. 5).
const PrestoFlowcellBytes = 64 * 1024

// PrestoReorderTimeout flushes buffered out-of-order flowcells to the VM
// ("an empirical static timeout", Sec. 5).
const PrestoReorderTimeout = 600 * sim.Microsecond

// PrestoMaxBuffered bounds the per-flow reorder buffer so packet loss does
// not stall delivery indefinitely.
const PrestoMaxBuffered = 192

// Presto implements the paper's adaptation of Presto to L3 ECMP fabrics:
// the sender rotates through a pre-computed set of encap source ports per
// 64KB flowcell in (weighted) round-robin, congestion-obliviously; the
// receiver reassembles out-of-order flowcells before the VM sees them.
// For asymmetric topologies the experiment may install ideal static path
// weights (the benefit of the doubt the paper grants Presto).
type Presto struct {
	sim *sim.Simulator

	// send side
	wrr     map[packet.HostID]*clove.WRR
	weights map[packet.HostID]map[uint16]float64 // optional static weights
	cells   map[packet.FiveTuple]*prestoCell

	// receive side
	reorder map[packet.FiveTuple]*prestoReorderQ

	// stats
	FlowcellsStarted int64
	BufferedPackets  int64
	TimeoutFlushes   int64
}

type prestoCell struct {
	port      uint16
	remaining int
}

type prestoReorderQ struct {
	expected int64
	buf      []*packet.Packet // sorted by Seq
	timerSet bool
	deadline sim.Time
	// deliver is the callback the armed timer flushes to, stored at arm
	// time (it is VSwitch.deliverFn, bound once per vswitch).
	deliver func(*packet.Packet)
}

// NewPresto creates the policy bound to the simulation clock.
func NewPresto(s *sim.Simulator) *Presto {
	return &Presto{
		sim:     s,
		wrr:     map[packet.HostID]*clove.WRR{},
		weights: map[packet.HostID]map[uint16]float64{},
		cells:   map[packet.FiveTuple]*prestoCell{},
		reorder: map[packet.FiveTuple]*prestoReorderQ{},
	}
}

// Name implements PathPolicy.
func (*Presto) Name() string { return "presto" }

// SetPaths implements PathPolicy: installs the port set used for spraying.
func (p *Presto) SetPaths(dst packet.HostID, ports []uint16) {
	w := clove.NewWRR(ports)
	if sw := p.weights[dst]; sw != nil {
		weights := make([]float64, len(ports))
		for i, port := range ports {
			if v, ok := sw[port]; ok {
				weights[i] = v
			} else {
				weights[i] = 1
			}
		}
		w.Reset(ports, weights)
	}
	p.wrr[dst] = w
}

// SetStaticWeights installs ideal per-port weights for dst (Sec. 5.2 gives
// Presto the correct asymmetric weights a centralized controller would
// compute). Call before or after SetPaths; ports are matched by value.
func (p *Presto) SetStaticWeights(dst packet.HostID, weights map[uint16]float64) {
	p.weights[dst] = weights
	if w := p.wrr[dst]; w != nil {
		p.SetPaths(dst, w.Ports())
	}
}

// PickPort implements PathPolicy; Presto is per-packet, so this is only the
// fallback used before paths are installed.
func (p *Presto) PickPort(_ packet.HostID, flow packet.FiveTuple, flowletID uint32) uint16 {
	return portHash(flow, flowletID+1)
}

// PickPortPacket implements perPacketPolicy: one port per 64KB flowcell.
func (p *Presto) PickPortPacket(dst packet.HostID, flow packet.FiveTuple, payloadLen int) uint16 {
	w := p.wrr[dst]
	cell := p.cells[flow]
	if cell == nil {
		cell = &prestoCell{}
		p.cells[flow] = cell
	}
	if cell.remaining <= 0 {
		cell.remaining = PrestoFlowcellBytes
		if w != nil && w.Len() > 0 {
			cell.port = w.Next()
		} else {
			cell.port = portHash(flow, uint32(p.FlowcellsStarted)+1)
		}
		p.FlowcellsStarted++
	}
	cell.remaining -= payloadLen
	if payloadLen == 0 {
		// Pure ACKs ride the current cell's port; they are tiny and their
		// ordering does not matter for spraying.
		return cell.port
	}
	return cell.port
}

// OnFeedback implements PathPolicy (Presto is congestion-oblivious).
func (*Presto) OnFeedback(packet.HostID, packet.Feedback, sim.Time) {}

// AllCongested implements PathPolicy.
func (*Presto) AllCongested(packet.HostID, sim.Time) bool { return false }

// OnDeliver implements receiverHook: reassemble data packets in inner
// sequence order before the VM's TCP stack sees them, so spraying does not
// trigger duplicate-ACK storms. Pure ACKs and old (retransmitted) segments
// pass straight through.
func (p *Presto) OnDeliver(pkt *packet.Packet, deliver func(*packet.Packet)) {
	if pkt.PayloadLen == 0 {
		deliver(pkt)
		return
	}
	q := p.reorder[pkt.Inner]
	if q == nil {
		q = &prestoReorderQ{}
		p.reorder[pkt.Inner] = q
	}
	end := pkt.Seq + int64(pkt.PayloadLen)
	switch {
	case pkt.Seq <= q.expected:
		if end > q.expected {
			q.expected = end
		}
		deliver(pkt)
		p.drain(q, deliver)
	default:
		p.BufferedPackets++
		q.insert(pkt)
		if len(q.buf) >= PrestoMaxBuffered {
			p.flush(q, deliver)
			return
		}
		if !q.timerSet {
			q.timerSet = true
			q.deadline = p.sim.Now() + PrestoReorderTimeout
			p.armTimer(q, deliver)
		}
	}
}

// armTimer schedules q's reorder timeout through the static
// prestoTimerFire trampoline, so arming allocates nothing.
func (p *Presto) armTimer(q *prestoReorderQ, deliver func(*packet.Packet)) {
	q.deliver = deliver
	p.sim.AtCall(q.deadline, prestoTimerFire, p, q)
}

func prestoTimerFire(a, b any) {
	p, q := a.(*Presto), b.(*prestoReorderQ)
	if !q.timerSet {
		return
	}
	if len(q.buf) == 0 {
		q.timerSet = false
		return
	}
	p.TimeoutFlushes++
	p.flush(q, q.deliver)
}

// drain releases buffered packets that became in-order.
func (p *Presto) drain(q *prestoReorderQ, deliver func(*packet.Packet)) {
	for len(q.buf) > 0 && q.buf[0].Seq <= q.expected {
		pkt := q.buf[0]
		q.buf = q.buf[1:]
		if end := pkt.Seq + int64(pkt.PayloadLen); end > q.expected {
			q.expected = end
		}
		deliver(pkt)
	}
	if len(q.buf) == 0 {
		q.timerSet = false
	}
}

// flush releases everything in sequence order (loss recovery path).
func (p *Presto) flush(q *prestoReorderQ, deliver func(*packet.Packet)) {
	for _, pkt := range q.buf {
		if end := pkt.Seq + int64(pkt.PayloadLen); end > q.expected {
			q.expected = end
		}
		deliver(pkt)
	}
	q.buf = q.buf[:0]
	q.timerSet = false
}

func (q *prestoReorderQ) insert(pkt *packet.Packet) {
	i := sort.Search(len(q.buf), func(i int) bool { return q.buf[i].Seq >= pkt.Seq })
	q.buf = append(q.buf, nil)
	copy(q.buf[i+1:], q.buf[i:])
	q.buf[i] = pkt
}
