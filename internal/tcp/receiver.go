package tcp

import (
	"slices"

	"clove/internal/packet"
	"clove/internal/sim"
)

// ReceiverStats counts receive-side events.
type ReceiverStats struct {
	SegmentsReceived int64
	OutOfOrder       int64
	Duplicates       int64
	AcksSent         int64
	CESeen           int64
	BytesDelivered   int64
}

// interval is a half-open received byte range [start, end).
type interval struct{ start, end int64 }

// Receiver is the data sink for one direction of a connection: it tracks the
// in-order delivery point, buffers out-of-order segments, generates
// cumulative ACKs, and echoes ECN congestion marks back to the sender
// (ECE set on ACKs for marked segments, DCTCP-style per-packet echo). It
// reads its Config in place, like Sender.
type Receiver struct {
	sim  *sim.Simulator
	cfg  *Config
	flow packet.FiveTuple // direction of the *data* (ACKs go the other way)
	// handle is stamped on every ACK (SetFlowHandle); 0 for none.
	handle packet.FlowHandle

	// Output transmits ACK segments toward the network.
	Output func(*packet.Packet)

	rcvNxt int64
	ooo    []interval // sorted, disjoint, all > rcvNxt

	stats ReceiverStats
}

// NewReceiver creates a receiver for data flowing along flow; ACKs are
// emitted on the reverse tuple via output. It reads its own copy of cfg,
// with zero fields defaulted.
func NewReceiver(s *sim.Simulator, cfg Config, flow packet.FiveTuple, output func(*packet.Packet)) *Receiver {
	cfg = cfg.withDefaults()
	return NewSharedReceiver(s, &cfg, flow, output)
}

// NewSharedReceiver is NewReceiver reading cfg in place: cfg must have
// every default filled (DefaultConfig, then overrides) and must not change
// while the receiver lives.
func NewSharedReceiver(s *sim.Simulator, cfg *Config, flow packet.FiveTuple, output func(*packet.Packet)) *Receiver {
	return &Receiver{sim: s, cfg: cfg, flow: flow, Output: output}
}

// SetFlowHandle makes the receiver stamp h, the handle of the ACK
// direction, into every ACK it emits (packet.Packet.Flow).
func (r *Receiver) SetFlowHandle(h packet.FlowHandle) { r.handle = h }

// Stats returns a snapshot of the receiver counters.
func (r *Receiver) Stats() ReceiverStats { return r.stats }

// RcvNxt returns the next expected in-order byte.
func (r *Receiver) RcvNxt() int64 { return r.rcvNxt }

// OOOSegments reports how many disjoint out-of-order ranges are buffered.
func (r *Receiver) OOOSegments() int { return len(r.ooo) }

// HandleData processes an incoming (inner, already-decapsulated) data
// segment and emits a cumulative ACK. The receiver consumes the packet: it
// is released to the configured pool before returning and must not be
// referenced by the caller afterwards.
func (r *Receiver) HandleData(pkt *packet.Packet) {
	r.stats.SegmentsReceived++
	ce := pkt.InnerCE
	if ce {
		r.stats.CESeen++
	}
	start, end, h := pkt.Seq, pkt.Seq+int64(pkt.PayloadLen), pkt.Flow
	r.cfg.Pool.Put(pkt)

	oldNxt := r.rcvNxt
	switch {
	case end <= r.rcvNxt:
		r.stats.Duplicates++
	case start > r.rcvNxt:
		r.stats.OutOfOrder++
		r.insertOOO(start, end)
	default:
		// Advances the in-order point; absorb any buffered continuation.
		r.stats.BytesDelivered += end - r.rcvNxt
		r.rcvNxt = end
		r.drainOOO()
	}
	if r.rcvNxt > oldNxt {
		if o := r.cfg.Pool.Obs(); o != nil {
			o.StreamDeliver(r.flow, h, oldNxt, r.rcvNxt)
		}
	}
	r.sendAck(ce)
}

// insertOOO adds [start, end) to the out-of-order buffer in place: the
// range absorbs every buffered range it overlaps or touches, and the buffer
// stays sorted and disjoint. Once the buffer has its capacity this
// allocates nothing.
func (r *Receiver) insertOOO(start, end int64) {
	i := 0
	for i < len(r.ooo) && r.ooo[i].end < start {
		i++
	}
	j := i
	for j < len(r.ooo) && r.ooo[j].start <= end {
		start, end = min(start, r.ooo[j].start), max(end, r.ooo[j].end)
		j++
	}
	r.ooo = slices.Replace(r.ooo, i, j, interval{start, end})
}

// drainOOO delivers the buffered ranges the in-order point has reached and
// copies the rest down, keeping the buffer's array.
func (r *Receiver) drainOOO() {
	n := 0
	for n < len(r.ooo) && r.ooo[n].start <= r.rcvNxt {
		if r.ooo[n].end > r.rcvNxt {
			r.stats.BytesDelivered += r.ooo[n].end - r.rcvNxt
			r.rcvNxt = r.ooo[n].end
		}
		n++
	}
	r.ooo = slices.Delete(r.ooo, 0, n)
}

func (r *Receiver) sendAck(ce bool) {
	flags := packet.FlagACK
	if ce && r.cfg.ECN {
		flags |= packet.FlagECE
	}
	ack := r.cfg.Pool.Get()
	ack.Kind = packet.KindData
	ack.Inner = r.flow.Reverse()
	ack.Flow = r.handle
	ack.Ack = r.rcvNxt
	ack.Flags = flags
	ack.InnerECT = r.cfg.ECN
	r.stats.AcksSent++
	r.Output(ack)
}
