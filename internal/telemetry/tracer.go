// Package telemetry is the opt-in tracing subsystem: a time-series Tracer
// recording sampled streams — link queue occupancy and ECN marks,
// per-destination path weights and congestion ages, TCP
// cwnd/ssthresh/RTO and retransmit events, flowlet sizes and inter-gap
// times, per-job FCTs, and event-engine load — into bounded per-stream ring
// buffers, exported as JSONL and CSV. Run-level totals (the metrics file)
// are not counted here a second time: AddMetric registers a reader over the
// counters the components already keep (netem.LinkStats, tcp.SenderStats),
// evaluated at Export.
//
// A nil *Tracer is the disabled state; every call site is one predictable
// nil check, the same disabled-cost contract as packet.Observer (see
// internal/oracle).
//
// Everything is deterministic: records carry only simulated time, streams
// are appended in event order, and export formats numbers with strconv, so
// a trace directory is byte-identical for the same seed at any -j.
package telemetry

import (
	"clove/internal/packet"
	"clove/internal/sim"
)

// Config parameterizes a Tracer.
type Config struct {
	// Interval is the periodic sampling interval for the polled streams
	// (queue occupancy, path weights, cwnd, sim load). 0 means the default
	// of 100µs — about one unloaded fabric RTT at testbed scale.
	Interval sim.Time
	// MaxSamples bounds each stream's ring buffer; when a stream overflows,
	// the oldest records are overwritten (the drop count is exported as a
	// telemetry.dropped.* metric). 0 means the default of 16384.
	MaxSamples int
}

// DefaultInterval is the sampling interval used when Config.Interval is 0.
const DefaultInterval = 100 * sim.Microsecond

// DefaultMaxSamples is the per-stream ring bound when Config.MaxSamples is 0.
const DefaultMaxSamples = 16384

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = DefaultMaxSamples
	}
	return c
}

// RetxKind classifies a retransmission event.
type RetxKind uint8

// Retransmission kinds recorded by the tcp stream.
const (
	// RetxFast is a fast retransmit (dupack-triggered, including the
	// partial-ACK retransmissions of NewReno recovery).
	RetxFast RetxKind = iota
	// RetxTimeout is an RTO expiry (go-back-N restart).
	RetxTimeout
)

func (k RetxKind) String() string {
	if k == RetxTimeout {
		return "timeout"
	}
	return "fast"
}

// QueueSample is one polled observation of a link's egress queue.
type QueueSample struct {
	T        sim.Time
	Link     packet.LinkID
	Name     string
	QLen     int
	ECNMarks int64 // cumulative marks on this link so far
	Drops    int64 // cumulative queue-overflow + link-down drops
}

// WeightSample is one polled observation of one path's state in a source
// hypervisor's weight table.
type WeightSample struct {
	T            sim.Time
	Src, Dst     packet.HostID
	Port         uint16
	Weight       float64
	Util         float64
	CongestedAge sim.Time // now - LastCongested; -1 = never congested
}

// CwndSample is one polled observation of a TCP sender.
type CwndSample struct {
	T           sim.Time
	Flow        packet.FiveTuple
	Cwnd        float64 // segments
	Ssthresh    float64 // segments
	RTO         sim.Time
	Outstanding int64 // unacknowledged bytes
}

// RetxEvent is one retransmission event on a sender.
type RetxEvent struct {
	T    sim.Time
	Flow packet.FiveTuple
	Seq  int64
	Kind RetxKind
}

// FlowletSample records one *completed* flowlet: a new flowlet (or nothing —
// the final flowlet of a flow has no closing record) ends the previous one,
// whose size and the idle gap that terminated it are reported here.
type FlowletSample struct {
	T       sim.Time
	Flow    packet.FiveTuple
	ID      uint32 // the completed flowlet's ID
	Port    uint16 // the encap source port it was pinned to
	Packets int64
	Bytes   int64
	Gap     sim.Time // idle gap that ended it
}

// FCTSample is one completed application job.
type FCTSample struct {
	T        sim.Time // completion time
	Src, Dst packet.HostID
	Size     int64
	FCT      sim.Time
}

// SimSample is one polled observation of the simulator.
type SimSample struct {
	T         sim.Time
	Processed uint64
	Pending   int
	FreeList  int // Simulator.FreeEvents: the peak pending count less Pending
}

// ring is a bounded append-only buffer: it grows like a slice up to cap
// records, then wraps, overwriting the oldest (dropped counts the
// overwrites). snapshot returns retained records oldest-first.
type ring[T any] struct {
	buf     []T
	max     int
	head    int // index of the oldest record once wrapped
	dropped int64
}

func (r *ring[T]) push(v T) {
	if len(r.buf) < r.max {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.head] = v
	r.head++
	if r.head == r.max {
		r.head = 0
	}
	r.dropped++
}

func (r *ring[T]) snapshot() []T {
	if r.head == 0 {
		return r.buf
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	out = append(out, r.buf[:r.head]...)
	return out
}

// Tracer records a run's telemetry. A nil *Tracer is the disabled state:
// every method is a nil-receiver no-op, so call sites need no guard beyond
// the one nil check the method itself performs.
type Tracer struct {
	sim *sim.Simulator
	cfg Config

	// metrics are the run-level totals AddMetric registered, by name.
	metrics map[string]func() int64

	queues   ring[QueueSample]
	weights  ring[WeightSample]
	cwnds    ring[CwndSample]
	retx     ring[RetxEvent]
	flowlets ring[FlowletSample]
	fcts     ring[FCTSample]
	sims     ring[SimSample]

	samplers []func(now sim.Time)
	started  bool
	cancel   func()
}

// NewTracer creates a tracer bound to the run's simulator. Call AddSampler
// to register polled streams, then Start to arm the sampling ticker.
func NewTracer(s *sim.Simulator, cfg Config) *Tracer {
	cfg = cfg.withDefaults()
	t := &Tracer{sim: s, cfg: cfg}
	t.queues.max = cfg.MaxSamples
	t.weights.max = cfg.MaxSamples
	t.cwnds.max = cfg.MaxSamples
	t.retx.max = cfg.MaxSamples
	t.flowlets.max = cfg.MaxSamples
	t.fcts.max = cfg.MaxSamples
	t.sims.max = cfg.MaxSamples
	return t
}

// Interval returns the effective sampling interval.
func (t *Tracer) Interval() sim.Time {
	if t == nil {
		return 0
	}
	return t.cfg.Interval
}

// AddMetric registers a run-level total under name: read is evaluated at
// Export, so the metrics file reports a counter its owner already keeps
// instead of a second copy of it. Registering a name again replaces its
// reader. No-op on a nil tracer.
func (t *Tracer) AddMetric(name string, read func() int64) {
	if t == nil {
		return
	}
	if t.metrics == nil {
		t.metrics = map[string]func() int64{}
	}
	t.metrics[name] = read
}

// AddSampler registers a polled stream producer, invoked every Interval in
// registration order (registration order is wiring order, which is
// deterministic, so records interleave identically across runs).
func (t *Tracer) AddSampler(fn func(now sim.Time)) {
	if t == nil {
		return
	}
	t.samplers = append(t.samplers, fn)
}

// Start arms the sampling ticker. Idempotent; no-op on a nil tracer.
func (t *Tracer) Start() {
	if t == nil || t.started {
		return
	}
	t.started = true
	t.cancel = t.sim.Ticker(t.cfg.Interval, t.tick)
}

// Stop cancels the sampling ticker (the tracer's records stay exportable).
func (t *Tracer) Stop() {
	if t == nil || t.cancel == nil {
		return
	}
	t.cancel()
	t.cancel = nil
	t.started = false
}

func (t *Tracer) tick() {
	now := t.sim.Now()
	t.sims.push(SimSample{
		T: now, Processed: t.sim.Processed(),
		Pending: t.sim.Pending(), FreeList: t.sim.FreeEvents(),
	})
	for _, fn := range t.samplers {
		fn(now)
	}
}

// QueueSample records one link-queue observation.
func (t *Tracer) QueueSample(now sim.Time, link packet.LinkID, name string, qlen int, ecnMarks, drops int64) {
	if t == nil {
		return
	}
	t.queues.push(QueueSample{T: now, Link: link, Name: name, QLen: qlen, ECNMarks: ecnMarks, Drops: drops})
}

// WeightSample records one path-weight observation.
func (t *Tracer) WeightSample(now sim.Time, src, dst packet.HostID, port uint16, weight, util float64, congestedAge sim.Time) {
	if t == nil {
		return
	}
	t.weights.push(WeightSample{T: now, Src: src, Dst: dst, Port: port, Weight: weight, Util: util, CongestedAge: congestedAge})
}

// CwndSample records one TCP-sender observation.
func (t *Tracer) CwndSample(now sim.Time, flow packet.FiveTuple, cwnd, ssthresh float64, rto sim.Time, outstanding int64) {
	if t == nil {
		return
	}
	t.cwnds.push(CwndSample{T: now, Flow: flow, Cwnd: cwnd, Ssthresh: ssthresh, RTO: rto, Outstanding: outstanding})
}

// Retransmit records a retransmission event.
func (t *Tracer) Retransmit(now sim.Time, flow packet.FiveTuple, seq int64, kind RetxKind) {
	if t == nil {
		return
	}
	t.retx.push(RetxEvent{T: now, Flow: flow, Seq: seq, Kind: kind})
}

// Flowlet records a completed flowlet.
func (t *Tracer) Flowlet(now sim.Time, flow packet.FiveTuple, id uint32, port uint16, packets, bytes int64, gap sim.Time) {
	if t == nil {
		return
	}
	t.flowlets.push(FlowletSample{T: now, Flow: flow, ID: id, Port: port, Packets: packets, Bytes: bytes, Gap: gap})
}

// FCT records a completed application job.
func (t *Tracer) FCT(now sim.Time, src, dst packet.HostID, size int64, fct sim.Time) {
	if t == nil {
		return
	}
	t.fcts.push(FCTSample{T: now, Src: src, Dst: dst, Size: size, FCT: fct})
}

// Weights returns the retained weight samples oldest-first (tests).
func (t *Tracer) Weights() []WeightSample {
	if t == nil {
		return nil
	}
	return t.weights.snapshot()
}

// FCTs returns the retained FCT samples oldest-first (tests).
func (t *Tracer) FCTs() []FCTSample {
	if t == nil {
		return nil
	}
	return t.fcts.snapshot()
}

// Queues returns the retained queue samples oldest-first (tests).
func (t *Tracer) Queues() []QueueSample {
	if t == nil {
		return nil
	}
	return t.queues.snapshot()
}

// Cwnds returns the retained sender samples oldest-first (tests).
func (t *Tracer) Cwnds() []CwndSample {
	if t == nil {
		return nil
	}
	return t.cwnds.snapshot()
}

// Flowlets returns the retained flowlet samples oldest-first (tests).
func (t *Tracer) Flowlets() []FlowletSample {
	if t == nil {
		return nil
	}
	return t.flowlets.snapshot()
}

// Retransmits returns the retained retransmit events oldest-first (tests).
func (t *Tracer) Retransmits() []RetxEvent {
	if t == nil {
		return nil
	}
	return t.retx.snapshot()
}
