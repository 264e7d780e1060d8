package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clove/internal/datapath"
)

// Both datapath workloads drive one pair of endpoints over 127.0.0.1 from
// one goroutine. A payload is: sequence number (8 bytes), send stamp in ns
// since the generator's base (8), six words derived from seed and sequence
// (48), then a seeded constant tail up to the workload's size. The receiver
// checks all of it.
const (
	headBytes   = 64
	window      = 512 // closed loop: at most this many datagrams unacknowledged
	batchLen    = 64  // Enqueue calls per Flush
	seenSlots   = 1 << 16
	replyWait   = 100 * time.Millisecond
	thinkTime   = time.Millisecond
	latSampling = 64 // one one-way delay sample per this many datagrams
)

type pair struct{ a, b *datapath.Endpoint }

// newPair binds two endpoints and points each at the other's first path.
func (r *run) newPair(parent int, cfg datapath.Config) (*pair, error) {
	var p pair
	var err error
	mk := func() *datapath.Endpoint {
		var e *datapath.Endpoint
		r.span("datapath.NewEndpoint", parent, func() {
			var nerr error
			if e, nerr = datapath.NewEndpoint("127.0.0.1", cfg); nerr != nil && err == nil {
				err = nerr
			}
		})
		return e
	}
	p.a, p.b = mk(), mk()
	if err != nil {
		p.close()
		return nil, err
	}
	start := func(e, peer *datapath.Endpoint) {
		r.span("datapath.Start", parent, func() {
			if serr := e.Start(fmt.Sprintf("127.0.0.1:%d", peer.Ports()[0])); serr != nil && err == nil {
				err = serr
			}
		})
	}
	start(p.a, p.b)
	start(p.b, p.a)
	if err != nil {
		p.close()
		return nil, err
	}
	return &p, nil
}

func (p *pair) close() {
	for _, e := range []*datapath.Endpoint{p.a, p.b} {
		if e != nil {
			e.Close()
		}
	}
}

// dpSetup is one full datapath set-up as a user pays it: bind and start both
// endpoints, then deliver a first datagram. It is a few noisy milliseconds,
// so it is repeated 8x as often as the other workloads' set-up.
func (r *run) dpSetup(cfg datapath.Config) error {
	return r.setupPhase(8*r.sc.setupReps+1, func() (func(), error) {
		root := r.tr.begin("setup", -1)
		defer r.tr.end(root)
		p, err := r.newPair(root, cfg)
		if err != nil {
			return nil, err
		}
		got := make(chan struct{}, 1)
		p.b.SetOnRecv(func([]byte) {
			select {
			case got <- struct{}{}:
			default:
			}
		})
		if err := p.a.Send(make([]byte, headBytes)); err != nil {
			return p.close, err
		}
		select {
		case <-got:
			return p.close, nil
		case <-time.After(time.Second):
			return p.close, errors.New("set-up: first datagram not delivered within 1 s")
		}
	})
}

// pattern writes and checks payloads.
type pattern struct {
	mix      uint64
	template []byte // a full payload with a zero head; the tail is constant
}

func newPattern(seed int64, size int) pattern {
	p := pattern{mix: uint64(seed)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019, template: make([]byte, size)}
	rand.New(rand.NewSource(seed)).Read(p.template[headBytes:])
	return p
}

func (p pattern) word(seq uint64, j int) uint64 {
	return (seq+uint64(j))*0xbf58476d1ce4e5b9 ^ p.mix
}

// fill writes sequence, stamp and the derived words into buf's head.
func (p pattern) fill(buf []byte, seq, stamp uint64) {
	binary.LittleEndian.PutUint64(buf[0:], seq)
	binary.LittleEndian.PutUint64(buf[8:], stamp)
	for j := 16; j < headBytes; j += 8 {
		binary.LittleEndian.PutUint64(buf[j:], p.word(seq, j))
	}
}

// valid reports whether buf is an intact payload, and its sequence number.
func (p pattern) valid(buf []byte) (uint64, bool) {
	if len(buf) != len(p.template) {
		return 0, false
	}
	seq := binary.LittleEndian.Uint64(buf[0:])
	for j := 16; j < headBytes; j += 8 {
		if binary.LittleEndian.Uint64(buf[j:]) != p.word(seq, j) {
			return seq, false
		}
	}
	return seq, bytes.Equal(buf[headBytes:], p.template[headBytes:])
}

// dpSlice is one measured interval of a datapath workload.
type dpSlice struct {
	traced    bool
	ops       int64
	wall      time.Duration
	user, sys time.Duration
	mallocs   uint64
	rtts      []float64 // echo only, µs
}

func (s dpSlice) perSec() float64 { return float64(s.ops) / s.wall.Seconds() }

// measureSlices runs n slices of length d, one after another; with traced,
// every second slice records spans.
func (r *run) measureSlices(traced bool, n int, d time.Duration, one func(d time.Duration, parent int) (dpSlice, error)) ([]dpSlice, error) {
	slices := make([]dpSlice, 0, n)
	for i := 0; i < n; i++ {
		r.tr.enable(traced && i%2 == 1, i)
		u0, m0 := readUsage(), mallocs()
		root := r.tr.begin("slice", -1)
		s, err := one(d, root)
		r.tr.end(root)
		if err != nil {
			return nil, err
		}
		u1 := readUsage()
		s.traced, s.user, s.sys, s.mallocs = r.tr.on.Load(), u1.user-u0.user, u1.sys-u0.sys, mallocs()-m0
		slices = append(slices, s)
	}
	r.tr.enable(false, 0)
	return slices, nil
}

// mainSlices is how many slices fill the run's budget (at least two, so a
// traced run has one of each kind).
func (r *run) mainSlices() int {
	if n := int(r.budget / r.sc.slice); n > 2 {
		return n
	}
	return 2
}

// sliceMedian is the median of f over the untraced (or traced) slices.
func sliceMedian(slices []dpSlice, traced bool, f func(dpSlice) float64) float64 {
	var xs []float64
	for _, s := range slices {
		if s.traced == traced {
			xs = append(xs, f(s))
		}
	}
	return median(xs)
}

// saturator is the closed-loop window generator and its checking receiver.
type saturator struct {
	r    *run
	p    *pair
	pat  pattern
	buf  []byte
	base time.Time

	sent, assumedLost int64
	received          atomic.Int64
	corrupt, dups     atomic.Int64
	seen              []atomic.Uint64 // seq+1 last seen in slot seq mod seenSlots
	lat               []int64         // sampled one-way delays, ns
	latN              atomic.Int64
	rcvStats          datapath.Stats // the receiver's counters, set by finish
}

func (r *run) newSaturator(cfg datapath.Config, size int) (*saturator, error) {
	p, err := r.newPair(-1, cfg)
	if err != nil {
		return nil, err
	}
	s := &saturator{
		r: r, p: p, pat: newPattern(r.seed, size), base: time.Now(),
		seen: make([]atomic.Uint64, seenSlots), lat: make([]int64, 1<<20),
	}
	s.buf = append([]byte(nil), s.pat.template...)
	p.b.SetOnRecv(s.onRecv)
	return s, nil
}

// onRecv runs on the receiving endpoint's shard goroutines.
func (s *saturator) onRecv(payload []byte) {
	n := s.received.Add(1)
	id := -1
	if n&1023 == 0 {
		id = s.r.tr.begin("onRecv", -1)
	}
	seq, ok := s.pat.valid(payload)
	switch {
	case !ok:
		s.corrupt.Add(1)
	case s.seen[seq%seenSlots].Swap(seq+1) == seq+1:
		s.dups.Add(1)
	case n%latSampling == 0:
		if i := s.latN.Add(1) - 1; i < int64(len(s.lat)) {
			s.lat[i] = int64(time.Since(s.base)) - int64(binary.LittleEndian.Uint64(payload[8:]))
		}
	}
	s.r.tr.end(id)
}

func (s *saturator) inFlight() int64 { return s.sent - s.received.Load() - s.assumedLost }

// runFor sends batches for d: 64 Enqueues and a Flush, then waits while the
// window is full. It returns after the datagrams in flight have landed.
func (s *saturator) runFor(d time.Duration, parent int) (dpSlice, error) {
	r0 := s.received.Load()
	start := time.Now()
	for batch := 0; ; batch++ {
		// One batch in 16 is traced: a span per batch would be 80k spans/s.
		on := parent >= 0 && batch&15 == 0
		var err error
		s.r.spanIf(on, "datapath.Enqueue-x64", parent, func() {
			for i := 0; i < batchLen && err == nil; i++ {
				s.pat.fill(s.buf, uint64(s.sent), uint64(time.Since(s.base)))
				if err = s.p.a.Enqueue(s.buf); err == nil {
					s.sent++
				}
			}
		})
		if err == nil {
			s.r.spanIf(on, "datapath.Flush", parent, func() { err = s.p.a.Flush() })
		}
		if err != nil {
			return dpSlice{}, err
		}
		if s.inFlight() >= window {
			s.r.spanIf(on, "window-wait", parent, s.waitWindow)
		}
		if time.Since(start) >= d {
			s.drain(50 * time.Millisecond)
			return dpSlice{ops: s.received.Load() - r0, wall: time.Since(start)}, nil
		}
	}
}

// waitWindow sleeps until the window opens. It sleeps, not spins: a spinning
// generator keeps the scheduler out of netpoll and starves the receiver. A
// window still full after 20 ms means loss, not delay: write the gap off so
// the generator cannot deadlock (the loss still counts as failures).
func (s *saturator) waitWindow() {
	deadline := time.Now().Add(20 * time.Millisecond)
	for s.inFlight() >= window {
		time.Sleep(20 * time.Microsecond)
		if time.Now().After(deadline) {
			s.assumedLost = s.sent - s.received.Load()
			return
		}
	}
}

func (s *saturator) drain(limit time.Duration) {
	deadline := time.Now().Add(limit)
	for s.received.Load() < s.sent && time.Now().Before(deadline) {
		time.Sleep(20 * time.Microsecond)
	}
}

// startMeasuring forgets the warm-up's delay samples.
func (s *saturator) startMeasuring() { s.latN.Store(0) }

// delays returns the sorted sampled one-way delays in µs.
func (s *saturator) delays() []float64 {
	n := s.latN.Load()
	if n > int64(len(s.lat)) {
		n = int64(len(s.lat))
	}
	d := make([]float64, n)
	for i := range d {
		d[i] = float64(s.lat[i]) / 1e3
	}
	sort.Float64s(d)
	return d
}

// finish waits for stragglers, closes the pair and books the outcome:
// datagrams lost, duplicated or corrupted are failed operations.
func (s *saturator) finish() {
	s.drain(200 * time.Millisecond)
	st := s.p.b.Stats()
	s.rcvStats = st
	s.p.close()
	lost := s.sent - s.received.Load()
	s.r.ops(s.sent, lost+s.dups.Load()+s.corrupt.Load(), "datagrams (lost, duplicated or corrupted)")
	s.r.check(st.DecodeErrors == 0 && st.SocketErrors == 0, "receiver saw %d decode and %d socket errors", st.DecodeErrors, st.SocketErrors)
}

// spanIf is span with a switch, for sampled call sites.
func (r *run) spanIf(on bool, name string, parent int, fn func()) {
	if !on {
		fn()
		return
	}
	r.span(name, parent, fn)
}

// saturate sets up a pair under cfg, warms it up, measures n slices of
// length d with size-byte payloads, and books the outcome.
func (r *run) saturate(cfg datapath.Config, size int, traced bool, warmup time.Duration, n int, d time.Duration) (*saturator, []dpSlice, error) {
	s, err := r.newSaturator(cfg, size)
	if err != nil {
		return nil, nil, err
	}
	if _, err := s.runFor(warmup, -1); err != nil {
		s.p.close()
		return nil, nil, err
	}
	s.startMeasuring()
	slices, err := r.measureSlices(traced, n, d, s.runFor)
	if err != nil {
		s.p.close()
		return nil, nil, err
	}
	s.finish()
	return s, slices, nil
}

// dpMicros prices the shim codec and the Clove building blocks the datapath
// calls per packet and per flowlet.
func (r *run) dpMicros() {
	r.layer["wire.shim_put_ns"], r.layer["wire.shim_unmarshal_ns"] = wireMicros(r.sc.micro)
	r.layer["clove.wrr_next_ns"], r.layer["clove.on_congestion_ns"], r.layer["clove.flowlet_touch_ns"] = cloveMicros(r.sc.micro)
}

func dpSaturate64B(r *run) error {
	cfg := datapath.DefaultConfig()
	if err := r.dpSetup(cfg); err != nil {
		return err
	}

	sat, slices, err := r.saturate(cfg, 64, r.traced, r.sc.warmup, r.mainSlices(), r.sc.slice)
	if err != nil {
		return err
	}
	delays := sat.delays()
	r.e2e["ops_per_s"] = sliceMedian(slices, false, dpSlice.perSec)
	r.e2e["latency_p50_us"] = quantile(delays, 0.5)
	if err := r.recordPeakRSS(); err != nil {
		return err
	}
	r.logf("%d slices, %d datagrams sent, %d received, %d delay samples", len(slices), sat.sent, sat.received.Load(), len(delays))
	if !r.traced {
		return nil
	}

	perPkt := func(f func(dpSlice) time.Duration) func(dpSlice) float64 {
		return func(s dpSlice) float64 { return float64(f(s).Nanoseconds()) / float64(s.ops) }
	}
	r.layer["datapath.pps.gso"] = r.e2e["ops_per_s"]
	r.layer["datapath.cpu_user_ns_per_pkt"] = sliceMedian(slices, false, perPkt(func(s dpSlice) time.Duration { return s.user }))
	r.layer["datapath.cpu_sys_ns_per_pkt"] = sliceMedian(slices, false, perPkt(func(s dpSlice) time.Duration { return s.sys }))
	r.layer["datapath.busy_cores"] = sliceMedian(slices, false, func(s dpSlice) float64 { return (s.user + s.sys).Seconds() / s.wall.Seconds() })
	// Both directions count: a datagram is one send and one receive.
	r.layer["datapath.allocs_per_pkt"] = sliceMedian(slices, false, func(s dpSlice) float64 { return float64(s.mallocs) / float64(2*s.ops) })
	r.layer["datapath.flowlets_per_kpkt"] = 1000 * float64(sat.p.a.Stats().Flowlets) / float64(sat.sent)
	r.layer["datapath.decode_errors"] = float64(sat.rcvStats.DecodeErrors)
	r.layer["datapath.socket_errors"] = float64(sat.rcvStats.SocketErrors)
	r.layer["datapath.oneway_p50_us"] = quantile(delays, 0.5)
	r.layer["datapath.oneway_p99_us"] = quantile(delays, 0.99)
	r.layer["datapath.enqueue_ns"] = median(r.tr.durations("datapath.Enqueue-x64"))
	r.layer["datapath.flush_ns"] = median(r.tr.durations("datapath.Flush"))
	r.layer["trace.overhead_frac"] = r.e2e["ops_per_s"]/sliceMedian(slices, true, dpSlice.perSec) - 1
	r.dpMicros()

	// The same generator under the other I/O flavours and packet sizes,
	// untraced: which mechanism buys the rate, and the rate against size.
	sweep := []struct {
		name string
		size int
		mod  func(*datapath.Config)
	}{
		{"datapath.pps.fallback", 64, func(c *datapath.Config) { c.NoBatchSyscalls = true }},
		{"datapath.pps.mmsg", 64, func(c *datapath.Config) { c.NoSegmentation = true }},
		{"datapath.pps.512B", 512, func(*datapath.Config) {}},
		{"datapath.pps.1400B", 1400, func(*datapath.Config) {}},
	}
	for _, sw := range sweep {
		c := cfg
		sw.mod(&c)
		_, sl, err := r.saturate(c, sw.size, false, r.sc.warmup/4, 2, r.sc.subrun/2)
		if err != nil {
			return fmt.Errorf("%s: %w", sw.name, err)
		}
		r.layer[sw.name] = sliceMedian(sl, false, dpSlice.perSec)
		if sw.size == 1400 {
			r.layer["datapath.cpu_sys_ns_per_pkt.1400B"] = sliceMedian(sl, false, perPkt(func(s dpSlice) time.Duration { return s.sys }))
		}
	}
	return nil
}

// echoer is the request-reply caller: one exchange outstanding at a time.
type echoer struct {
	r   *run
	p   *pair
	pat pattern
	rng *rand.Rand

	mu      sync.Mutex // guards req and seq against the reply callback
	req     []byte
	seq     uint64
	replied chan struct{}
	timer   *time.Timer

	attempted, unanswered int64
	mismatched, echoErrs  atomic.Int64
}

func (r *run) newEchoer(cfg datapath.Config, size int) (*echoer, error) {
	p, err := r.newPair(-1, cfg)
	if err != nil {
		return nil, err
	}
	e := &echoer{
		r: r, p: p, pat: newPattern(r.seed, size), rng: rand.New(rand.NewSource(r.seed)),
		replied: make(chan struct{}, 1), timer: time.NewTimer(time.Hour),
	}
	e.req = append([]byte(nil), e.pat.template...)
	// The peer echoes from its receive callback; Send copies the payload
	// into the transmit ring before it returns, as the ownership rule needs.
	p.b.SetOnRecv(func(payload []byte) {
		id := -1
		if binary.LittleEndian.Uint64(payload)&7 == 0 {
			id = r.tr.begin("onRecv+echo", -1)
		}
		if err := p.b.Send(payload); err != nil {
			e.echoErrs.Add(1)
		}
		r.tr.end(id)
	})
	p.a.SetOnRecv(func(payload []byte) {
		e.mu.Lock()
		same := bytes.Equal(payload, e.req)
		e.mu.Unlock()
		if !same {
			// Corrupted, or the late answer to a request already given up on.
			e.mismatched.Add(1)
			return
		}
		select {
		case e.replied <- struct{}{}:
		default:
		}
	})
	return e, nil
}

// exchange sends one request and waits for its echo; ok is false when no
// matching reply came within replyWait.
func (e *echoer) exchange(parent int) (rtt time.Duration, ok bool, err error) {
	e.mu.Lock()
	e.seq++
	e.pat.fill(e.req, e.seq, 0)
	e.mu.Unlock()
	e.attempted++
	on := parent >= 0 && e.seq&7 == 0 // one exchange in 8 is traced
	t0 := time.Now()
	e.r.spanIf(on, "datapath.Send", parent, func() { err = e.p.a.Send(e.req) })
	if err != nil {
		return 0, false, err
	}
	e.timer.Reset(replyWait)
	id := -1
	if on {
		id = e.r.tr.begin("wait-reply", parent)
	}
	select {
	case <-e.replied:
		rtt = time.Since(t0)
		e.r.tr.end(id)
		if !e.timer.Stop() {
			<-e.timer.C
		}
		return rtt, true, nil
	case <-e.timer.C:
		e.r.tr.end(id)
		e.unanswered++
		return 0, false, nil
	}
}

// runFor issues bursts of 16 to 48 exchanges with think time between them,
// so every burst starts a new flowlet and the WRR rotates all paths.
func (e *echoer) runFor(d time.Duration, parent int) (dpSlice, error) {
	s := dpSlice{rtts: make([]float64, 0, 1<<15)}
	start := time.Now()
	for time.Since(start) < d {
		for n := 16 + e.rng.Intn(33); n > 0; n-- {
			rtt, ok, err := e.exchange(parent)
			if err != nil {
				return dpSlice{}, err
			}
			if ok {
				s.ops++
				s.rtts = append(s.rtts, float64(rtt.Nanoseconds())/1e3)
			}
		}
		time.Sleep(thinkTime)
	}
	s.wall = time.Since(start)
	sort.Float64s(s.rtts)
	return s, nil
}

func dpEcho1400B(r *run) error {
	cfg := datapath.DefaultConfig()
	if err := r.dpSetup(cfg); err != nil {
		return err
	}

	e, err := r.newEchoer(cfg, 1400)
	if err != nil {
		return err
	}
	defer e.p.close()
	if _, err := e.runFor(r.sc.warmup, -1); err != nil {
		return err
	}
	warm := e.attempted
	slices, err := r.measureSlices(r.traced, r.mainSlices(), r.sc.slice, e.runFor)
	if err != nil {
		return err
	}
	st := e.p.a.Stats()
	bst := e.p.b.Stats()
	r.ops(e.attempted, e.unanswered+e.mismatched.Load()+e.echoErrs.Load(), "exchanges (unanswered in 100 ms, mismatched, or echo Send error)")
	r.check(st.DecodeErrors+bst.DecodeErrors == 0 && st.SocketErrors+bst.SocketErrors == 0,
		"endpoints saw %d decode and %d socket errors", st.DecodeErrors+bst.DecodeErrors, st.SocketErrors+bst.SocketErrors)
	r.check(st.Flowlets > 1, "only %d flowlets: think time did not split bursts", st.Flowlets)

	p50 := func(s dpSlice) float64 { return quantile(s.rtts, 0.5) }
	r.e2e["ops_per_s"] = sliceMedian(slices, false, dpSlice.perSec)
	r.e2e["latency_p50_us"] = sliceMedian(slices, false, p50)
	if err := r.recordPeakRSS(); err != nil {
		return err
	}
	r.logf("%d slices, %d exchanges after %d of warm-up, %d flowlets", len(slices), e.attempted-warm, warm, st.Flowlets)
	if !r.traced {
		return nil
	}

	var all []float64
	for _, s := range slices {
		if !s.traced {
			all = append(all, s.rtts...)
		}
	}
	sort.Float64s(all)
	r.layer["datapath.echo_rtt_p90_us"] = quantile(all, 0.90)
	r.layer["datapath.echo_rtt_p99_us"] = quantile(all, 0.99)
	r.layer["datapath.echo_rtt_p999_us"] = quantile(all, 0.999)
	r.layer["datapath.echo_cpu_us_per_req"] = sliceMedian(slices, false, func(s dpSlice) float64 {
		return float64((s.user + s.sys).Nanoseconds()) / 1e3 / float64(s.ops)
	})
	r.layer["datapath.send_ns"] = median(r.tr.durations("datapath.Send"))
	r.layer["datapath.flowlets_per_kpkt"] = 1000 * float64(st.Flowlets) / float64(st.Sent)
	r.layer["datapath.decode_errors"] = float64(st.DecodeErrors + bst.DecodeErrors)
	r.layer["datapath.socket_errors"] = float64(st.SocketErrors + bst.SocketErrors)
	r.layer["datapath.allocs_per_pkt"] = sliceMedian(slices, false, func(s dpSlice) float64 { return float64(s.mallocs) / float64(4*s.ops) })
	r.layer["trace.overhead_frac"] = sliceMedian(slices, true, p50)/r.e2e["latency_p50_us"] - 1
	r.dpMicros()
	return nil
}
