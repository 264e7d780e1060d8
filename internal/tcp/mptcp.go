package tcp

import (
	"clove/internal/packet"
	"clove/internal/sim"
)

// MPSender models an MPTCP connection with a static set of subflows, as the
// paper deploys MPTCP v0.89 with 4 subflows (Sec. 5). Each subflow is a full
// NewReno sender with its own inner source port (so ECMP may route it on a
// distinct path). The data scheduler assigns application bytes to whichever
// subflow has congestion-window space, which is what lets MPTCP shift load
// toward uncongested paths; once assigned, a byte range completes on its
// subflow, which is why a subflow stuck on a congested path drags the tail
// (the paper's Fig. 5c observation).
//
// Congestion control is coupled with the Linked-Increases Algorithm (LIA):
// the congestion-avoidance increase on every subflow is scaled by a shared
// alpha so the aggregate is no more aggressive than one TCP flow.
type MPSender struct {
	sim      *sim.Simulator
	cfg      Config
	subflows []*Sender

	// Scheduler state: the next stream byte not yet assigned to a subflow.
	pendingBytes int64
	totalSize    int64
	acked        []int64 // bytes acked per subflow at last check

	jobs []job

	chunk int64 // scheduler granularity in bytes
}

// DefaultSubflows matches the paper's MPTCP configuration.
const DefaultSubflows = 4

// NewMPSender creates an MPTCP sender with n subflows. Subflow i uses inner
// source port base.SrcPort+i, and transmits via output (the vswitch treats
// subflows as independent flows, exactly as ECMP does).
func NewMPSender(s *sim.Simulator, cfg Config, base packet.FiveTuple, n int, output func(*packet.Packet)) *MPSender {
	cfg = cfg.withDefaults()
	m := &MPSender{
		sim:   s,
		cfg:   cfg,
		chunk: int64(cfg.MSS) * 16, // 16 segments per scheduling quantum
	}
	for i := 0; i < n; i++ {
		ft := base
		ft.SrcPort = base.SrcPort + uint16(i)
		sub := makeSender(s, &m.cfg, ft, output)
		m.subflows = append(m.subflows, &sub)
	}
	m.acked = make([]int64, n)
	// Couple the windows: recompute LIA alpha after every ACK by wrapping
	// the increase — approximated by periodic renormalization (see pump).
	return m
}

// Subflows exposes the underlying senders (for wiring ACK delivery).
func (m *MPSender) Subflows() []*Sender { return m.subflows }

// HandleAck dispatches an ACK to the owning subflow by inner source port
// (ACK dst port == subflow src port). The packet is consumed either way.
func (m *MPSender) HandleAck(pkt *packet.Packet) {
	matched := false
	for _, sub := range m.subflows {
		if sub.flow.SrcPort == pkt.Inner.DstPort {
			sub.HandleAck(pkt)
			matched = true
			break
		}
	}
	if !matched {
		m.cfg.Pool.Put(pkt)
	}
	m.applyLIA()
	m.pump()
	m.checkDone()
}

// Abort tears down every subflow and drops queued jobs (their done
// callbacks never fire); see Sender.Abort. Idempotent.
func (m *MPSender) Abort() {
	for _, sub := range m.subflows {
		sub.Abort()
	}
	m.jobs = nil
	// Stop the scheduler from assigning undispatched bytes.
	m.totalSize = m.pendingBytes
}

// StartJob appends an application transfer of size bytes.
func (m *MPSender) StartJob(size int64, done func(fct sim.Time)) {
	fn, a := ClosureJob(done)
	m.StartJobCall(size, fn, a, nil)
}

// StartJobCall is StartJob with the callback in static form (Sender.StartJobCall).
func (m *MPSender) StartJobCall(size int64, done JobFunc, a, b any) {
	m.totalSize += size
	m.jobs = append(m.jobs, job{endSeq: m.totalSize, arrival: m.sim.Now(), size: size, done: done, a: a, b: b})
	m.pump()
}

// pump assigns pending bytes to subflows with window space, in chunks.
// Assignment is greedy over subflows ordered by available window, which
// naturally sends more data over faster/less congested subflows.
func (m *MPSender) pump() {
	for m.pendingBytes < m.totalSize {
		best := -1
		var bestSpace float64
		for i, sub := range m.subflows {
			space := sub.cwnd - sub.flightSegments()
			if space > bestSpace {
				bestSpace = space
				best = i
			}
		}
		if best < 0 || bestSpace < 1 {
			return
		}
		n := min(m.chunk, m.totalSize-m.pendingBytes)
		m.pendingBytes += n
		m.subflows[best].StartJobCall(n, nil, nil, nil)
	}
}

// applyLIA rescales each subflow's window growth so that the aggregate
// increase matches LIA: alpha = cwnd_total * max(cwnd_i/rtt_i^2) /
// (sum cwnd_i/rtt_i)^2. We approximate by capping each subflow's cwnd at
// its LIA-fair share after growth, which keeps the aggregate bounded the
// same way without restructuring the per-subflow CC.
func (m *MPSender) applyLIA() {
	var sumRate, maxTerm, total float64
	for _, sub := range m.subflows {
		rtt := sub.srtt.Seconds()
		if rtt <= 0 {
			return // no samples yet; uncoupled during startup
		}
		total += sub.cwnd
		sumRate += sub.cwnd / rtt
		if t := sub.cwnd / (rtt * rtt); t > maxTerm {
			maxTerm = t
		}
	}
	if sumRate == 0 {
		return
	}
	alpha := total * maxTerm / (sumRate * sumRate)
	if alpha > 1 {
		alpha = 1
	}
	// Damp congestion-avoidance growth: shrink any window beyond its share
	// of the coupled aggregate by the LIA factor. Slow-start subflows are
	// left alone (LIA applies to congestion avoidance only).
	for _, sub := range m.subflows {
		if sub.cwnd >= sub.ssthresh && sub.cwnd > 2 {
			excess := sub.cwnd - total/float64(len(m.subflows))
			if excess > 0 {
				sub.cwnd -= excess * (1 - alpha) * 0.01
			}
		}
	}
}

// checkDone fires job completions: a job is complete when the total bytes
// acked across subflows covers its end offset. Because chunks are assigned
// in stream order and each subflow acks in its own order, total acked bytes
// is a lower bound that is exact at job boundaries when all assigned chunks
// complete; we use the conservative sum.
func (m *MPSender) checkDone() {
	var ackedTotal int64
	allIdle := true
	for _, sub := range m.subflows {
		ackedTotal += sub.sndUna
		if !sub.Idle() {
			allIdle = false
		}
	}
	for len(m.jobs) > 0 {
		j := m.jobs[0]
		reached := ackedTotal >= j.endSeq && (j.endSeq < m.totalSize || allIdle)
		if !reached {
			break
		}
		popJob(&m.jobs)
		j.finish(m.sim.Now())
	}
}

// Outstanding reports unacked bytes across all subflows.
func (m *MPSender) Outstanding() int64 {
	var n int64
	for _, sub := range m.subflows {
		n += sub.Outstanding()
	}
	return n
}
