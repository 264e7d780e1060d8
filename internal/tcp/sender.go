package tcp

import (
	"fmt"
	"slices"

	"clove/internal/packet"
	"clove/internal/sim"
	"clove/internal/telemetry"
)

// JobFunc is a job-completion callback in static form, the sim.AtCall
// idiom: it receives the operands given with the job, the job's size and
// its completion time. A static function with pointer operands allocates
// nothing per job, where a closure passed to StartJob costs one.
type JobFunc func(a, b any, size int64, fct sim.Time)

// job is one application-level transfer queued on a persistent connection.
type job struct {
	endSeq  int64 // stream offset after which the job is complete
	arrival sim.Time
	size    int64
	done    JobFunc // nil: no callback
	a, b    any
}

// finish runs the job's callback, if any, at now.
func (j *job) finish(now sim.Time) {
	if j.done != nil {
		j.done(j.a, j.b, j.size, now-j.arrival)
	}
}

// ClosureJob is a StartJob callback in JobFunc form: callClosure with the
// closure as its operand, or no callback for a nil closure.
func ClosureJob(done func(fct sim.Time)) (JobFunc, any) {
	if done == nil {
		return nil, nil
	}
	return callClosure, done
}

func callClosure(a, _ any, _ int64, fct sim.Time) { a.(func(sim.Time))(fct) }

// SenderStats counts transport events for diagnostics and tests.
type SenderStats struct {
	SegmentsSent    int64
	Retransmits     int64
	FastRetransmits int64
	Timeouts        int64
	ECNReductions   int64
	BytesAcked      int64
}

// Sender is a NewReno TCP data sender for one direction of a connection.
// Application jobs are byte ranges appended to a single stream (modelling
// sequential RPCs on a persistent connection, as in the paper's workload).
type Sender struct {
	sim  *sim.Simulator
	cfg  Config
	flow packet.FiveTuple
	// handle is stamped on every segment (SetFlowHandle); 0 for none.
	handle packet.FlowHandle

	// Output transmits a segment toward the network (the hypervisor
	// vswitch installs itself here).
	Output func(*packet.Packet)

	// Stream state.
	sndUna, sndNxt int64
	sndLimit       int64 // total bytes the app has asked to send
	jobs           []job

	// Congestion control (cwnd in segments).
	cwnd, ssthresh float64
	dupAcks        int
	inRecovery     bool
	recover        int64
	lastSendTime   sim.Time
	// hasSent records that at least one segment was ever emitted. The
	// slow-start-after-idle check needs it explicitly: lastSendTime == 0 is
	// ambiguous between "never sent" and "first send happened at sim time
	// 0", and treating time 0 as the never-sent sentinel disabled the idle
	// reset for the whole life of such a connection.
	hasSent bool

	// RTT estimation (Karn: only time un-retransmitted segments).
	srtt, rttvar sim.Time
	rttSeq       int64
	rttSentAt    sim.Time
	rttValid     bool

	// Retransmission timer.
	rtoTimer   sim.EventID
	rtoActive  bool
	rtoBackoff int

	// aborted marks a torn-down sender: no new data, no timer re-arming.
	aborted bool

	// ECN.
	lastECNCut sim.Time
	sendCWR    bool

	// Telemetry (nil when disabled; see internal/telemetry).
	trace *telemetry.Tracer

	stats SenderStats
}

// NewSender creates a sender for flow, transmitting via output.
func NewSender(s *sim.Simulator, cfg Config, flow packet.FiveTuple, output func(*packet.Packet)) *Sender {
	snd := makeSender(s, cfg, flow, output)
	return &snd
}

func makeSender(s *sim.Simulator, cfg Config, flow packet.FiveTuple, output func(*packet.Packet)) Sender {
	cfg = cfg.withDefaults()
	return Sender{
		sim:      s,
		cfg:      cfg,
		flow:     flow,
		Output:   output,
		cwnd:     cfg.InitCwnd,
		ssthresh: cfg.MaxCwnd,
	}
}

// Flow returns the sender's inner 5-tuple.
func (s *Sender) Flow() packet.FiveTuple { return s.flow }

// SetFlowHandle makes the sender stamp h into every segment it emits
// (packet.Packet.Flow), so the virtual switches find the flow's state by
// index.
func (s *Sender) SetFlowHandle(h packet.FlowHandle) { s.handle = h }

// FlowHandle returns the handle the sender stamps, 0 if none.
func (s *Sender) FlowHandle() packet.FlowHandle { return s.handle }

// Stats returns a snapshot of the sender's counters.
func (s *Sender) Stats() SenderStats { return s.stats }

// Outstanding reports unacknowledged bytes.
func (s *Sender) Outstanding() int64 { return s.sndNxt - s.sndUna }

// Cwnd returns the congestion window in segments (for tests/telemetry).
func (s *Sender) Cwnd() float64 { return s.cwnd }

// Ssthresh returns the slow-start threshold in segments (tests/telemetry).
func (s *Sender) Ssthresh() float64 { return s.ssthresh }

// RTO returns the current retransmission timeout (tests/telemetry).
func (s *Sender) RTO() sim.Time { return s.currentRTO() }

// SetTrace installs the telemetry tracer (nil keeps tracing disabled).
func (s *Sender) SetTrace(tr *telemetry.Tracer) {
	if tr == nil {
		return
	}
	s.trace = tr
}

// Idle reports whether the sender has nothing outstanding and nothing queued.
func (s *Sender) Idle() bool { return s.sndUna == s.sndLimit }

// Abort tears the sender down mid-stream: the retransmission timer is
// cancelled, queued jobs are dropped (their done callbacks never fire), and
// unsent bytes are discarded, so an abandoned connection — say one whose
// only path's switch failed — stops injecting retransmissions and the event
// queue can drain. Late ACKs are still consumed harmlessly, but never re-arm
// the timer or emit data. Abort is idempotent.
func (s *Sender) Abort() {
	s.aborted = true
	s.stopRTO()
	s.jobs = nil
	s.sndLimit = s.sndNxt
}

// StartJob appends size bytes to the stream. done (optional) fires when the
// last byte is acknowledged, with the flow completion time measured from
// this call. Jobs queued behind earlier jobs include the queueing delay in
// their FCT, matching the paper's job-completion-time metric.
func (s *Sender) StartJob(size int64, done func(fct sim.Time)) {
	fn, a := ClosureJob(done)
	s.StartJobCall(size, fn, a, nil)
}

// StartJobCall is StartJob with the callback in static form: done (nil for
// none) fires as done(a, b, size, fct).
func (s *Sender) StartJobCall(size int64, done JobFunc, a, b any) {
	if size <= 0 {
		panic(fmt.Sprintf("tcp: job size %d", size))
	}
	if s.aborted {
		// Teardown races benignly with already-scheduled arrivals; the job
		// is silently dropped, like writes on a closed socket.
		return
	}
	if s.cfg.SlowStartAfterIdle && s.Idle() {
		idle := s.sim.Now() - s.lastSendTime
		rto := s.currentRTO()
		if s.hasSent && idle > rto {
			s.cwnd = s.cfg.InitCwnd
			s.dupAcks = 0
			s.inRecovery = false
		}
	}
	s.sndLimit += size
	s.jobs = append(s.jobs, job{endSeq: s.sndLimit, arrival: s.sim.Now(), size: size, done: done, a: a, b: b})
	s.trySend()
}

// HandleAck processes an incoming (inner) ACK segment. The sender consumes
// the packet: it is released to the configured pool before returning and
// must not be referenced by the caller afterwards.
func (s *Sender) HandleAck(pkt *packet.Packet) {
	if !pkt.Flags.Has(packet.FlagACK) {
		s.cfg.Pool.Put(pkt)
		return
	}
	ack := pkt.Ack
	ece := s.cfg.ECN && pkt.Flags.Has(packet.FlagECE)
	s.cfg.Pool.Put(pkt)

	if ece {
		s.onECE()
	}

	switch {
	case ack > s.sndUna:
		s.onNewAck(ack)
	case ack == s.sndUna && s.sndNxt > s.sndUna:
		s.onDupAck()
	}
	s.trySend()
}

func (s *Sender) onNewAck(ack int64) {
	acked := ack - s.sndUna
	s.stats.BytesAcked += acked
	s.sndUna = ack
	s.dupAcks = 0

	// RTT sample (Karn's rule: only if the timed segment wasn't rexmitted).
	if s.rttValid && ack > s.rttSeq {
		s.updateRTT(s.sim.Now() - s.rttSentAt)
		s.rttValid = false
	}
	s.rtoBackoff = 0

	if s.inRecovery {
		if ack >= s.recover {
			// Full recovery: deflate to ssthresh.
			s.inRecovery = false
			s.cwnd = s.ssthresh
		} else {
			// Partial ACK: retransmit the next hole, deflate partially.
			s.retransmitFirst()
			s.cwnd = min(max(s.ssthresh, s.cwnd-float64(acked)/float64(s.cfg.MSS)+1), s.cfg.MaxCwnd)
		}
	} else if s.cwnd < s.ssthresh {
		// Slow start: one segment per segment acked.
		s.cwnd = min(s.cwnd+float64(acked)/float64(s.cfg.MSS), s.cfg.MaxCwnd)
	} else {
		// Congestion avoidance: 1/cwnd per segment acked.
		s.cwnd = min(s.cwnd+float64(acked)/float64(s.cfg.MSS)/s.cwnd, s.cfg.MaxCwnd)
	}

	s.completeJobs()

	if s.sndUna == s.sndNxt {
		s.stopRTO()
	} else {
		s.restartRTO()
	}
}

func (s *Sender) onDupAck() {
	s.dupAcks++
	if s.inRecovery {
		// Window inflation during recovery lets new data flow, bounded by
		// the receive-window stand-in.
		s.cwnd = min(s.cwnd+1, s.cfg.MaxCwnd)
		return
	}
	if s.dupAcks >= s.cfg.DupAckThreshold {
		// RFC 6582 "careful" variant: while still below the previous
		// recovery point, these dupacks are echoes of segments retransmitted
		// (or reordered) in the last episode — entering recovery again would
		// cut the window repeatedly for one loss event.
		if s.sndUna <= s.recover && s.recover > 0 {
			return
		}
		// Fast retransmit + fast recovery.
		s.stats.FastRetransmits++
		s.ssthresh = max(s.flightSegments()/2, 2)
		s.cwnd = s.ssthresh + float64(s.cfg.DupAckThreshold)
		s.inRecovery = true
		s.recover = s.sndNxt
		s.retransmitFirst()
		s.restartRTO()
	}
}

func (s *Sender) onECE() {
	// At most one multiplicative decrease per RTT (RFC 3168 behaviour).
	rtt := s.srtt
	if rtt == 0 {
		rtt = s.cfg.InitRTO / 2
	}
	if s.sim.Now()-s.lastECNCut < rtt {
		return
	}
	s.lastECNCut = s.sim.Now()
	s.stats.ECNReductions++
	s.ssthresh = max(s.cwnd/2, 2)
	s.cwnd = s.ssthresh
	s.sendCWR = true
}

func (s *Sender) completeJobs() {
	for len(s.jobs) > 0 && s.sndUna >= s.jobs[0].endSeq {
		j := popJob(&s.jobs)
		j.finish(s.sim.Now())
	}
}

// popJob removes and returns the head of q, copying the rest down so the
// queue keeps its array: a job on an idle connection appends without
// reallocating. The queue is updated before the caller runs the job's
// callback, which may queue another job.
func popJob(q *[]job) job {
	j := (*q)[0]
	*q = slices.Delete(*q, 0, 1)
	return j
}

func (s *Sender) flightSegments() float64 {
	return float64(s.sndNxt-s.sndUna) / float64(s.cfg.MSS)
}

// trySend transmits as much new data as the window allows.
func (s *Sender) trySend() {
	for {
		if s.sndNxt >= s.sndLimit {
			return
		}
		if s.flightSegments() >= s.cwnd {
			return
		}
		segLen := int(min(int64(s.cfg.MSS), s.sndLimit-s.sndNxt))
		s.emit(s.sndNxt, segLen, false)
		s.sndNxt += int64(segLen)
		if !s.rtoActive {
			s.restartRTO()
		}
	}
}

// emit builds and transmits one segment.
func (s *Sender) emit(seq int64, segLen int, isRexmit bool) {
	flags := packet.TCPFlags(0)
	if s.sendCWR {
		flags |= packet.FlagCWR
		s.sendCWR = false
	}
	// The last byte of the stream so far carries FIN semantics for the
	// receiver's bookkeeping; harmless for middle jobs.
	p := s.cfg.Pool.Get()
	p.Kind = packet.KindData
	p.Inner = s.flow
	p.Flow = s.handle
	p.Seq = seq
	p.Flags = flags
	p.PayloadLen = segLen
	p.InnerECT = s.cfg.ECN
	s.stats.SegmentsSent++
	if isRexmit {
		s.stats.Retransmits++
		if tr := s.trace; tr != nil {
			tr.Retransmit(s.sim.Now(), s.flow, seq, telemetry.RetxFast)
		}
		// Karn: invalidate the RTT sample if we retransmitted into it.
		if s.rttValid && seq <= s.rttSeq {
			s.rttValid = false
		}
	} else if !s.rttValid {
		s.rttSeq = seq
		s.rttSentAt = s.sim.Now()
		s.rttValid = true
	}
	s.lastSendTime = s.sim.Now()
	s.hasSent = true
	if o := s.cfg.Pool.Obs(); o != nil {
		o.StreamSent(s.flow, s.handle, seq, seq+int64(segLen), isRexmit)
	}
	s.Output(p)
}

func (s *Sender) retransmitFirst() {
	segLen := int(min(int64(s.cfg.MSS), s.sndLimit-s.sndUna))
	if segLen <= 0 {
		return
	}
	s.emit(s.sndUna, segLen, true)
}

// --- RTO management ---

func (s *Sender) currentRTO() sim.Time {
	var rto sim.Time
	if s.srtt == 0 {
		rto = s.cfg.InitRTO
	} else {
		rto = s.srtt + 4*s.rttvar
	}
	if rto < s.cfg.MinRTO {
		rto = s.cfg.MinRTO
	}
	for i := 0; i < s.rtoBackoff; i++ {
		rto *= 2
		if rto > 60*sim.Second {
			return 60 * sim.Second
		}
	}
	return rto
}

// senderRTO is the static trampoline for the retransmission timer; a method
// value here would allocate on every restart (once per ACK in steady state).
func senderRTO(a, _ any) { a.(*Sender).onRTO() }

func (s *Sender) restartRTO() {
	if s.aborted {
		return
	}
	s.stopRTO()
	s.rtoActive = true
	s.rtoTimer = s.sim.AfterCall(s.currentRTO(), senderRTO, s, nil)
}

func (s *Sender) stopRTO() {
	if s.rtoActive {
		s.sim.Cancel(s.rtoTimer)
		s.rtoActive = false
	}
}

func (s *Sender) onRTO() {
	s.rtoActive = false
	if s.sndUna == s.sndNxt {
		return // everything acked in the meantime
	}
	s.stats.Timeouts++
	if tr := s.trace; tr != nil {
		tr.Retransmit(s.sim.Now(), s.flow, s.sndUna, telemetry.RetxTimeout)
	}
	s.ssthresh = max(s.flightSegments()/2, 2)
	s.cwnd = 1
	s.dupAcks = 0
	s.inRecovery = false
	s.rtoBackoff++
	// Go-back-N restart: rewind transmission to the loss point.
	s.sndNxt = s.sndUna
	s.rttValid = false
	s.trySend()
	if s.sndUna != s.sndNxt {
		s.restartRTO()
	}
}

func (s *Sender) updateRTT(sample sim.Time) {
	if s.srtt == 0 {
		s.srtt = sample
		s.rttvar = sample / 2
		return
	}
	// RFC 6298 with alpha=1/8, beta=1/4.
	d := s.srtt - sample
	if d < 0 {
		d = -d
	}
	s.rttvar = (3*s.rttvar + d) / 4
	s.srtt = (7*s.srtt + sample) / 8
}

// SRTT returns the smoothed RTT estimate (0 before the first sample).
func (s *Sender) SRTT() sim.Time { return s.srtt }
