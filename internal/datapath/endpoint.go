// Package datapath is the deployable userspace realization of Clove: tunnel
// endpoints over real UDP sockets that steer traffic across ECMP paths by
// varying the outer source port (one bound socket per discovered path),
// split the stream into flowlets, reflect congestion feedback in the shim
// header of reverse traffic, and adapt per-path weights exactly as the
// simulator's Clove-ECN does. Both halves of the feedback loop are the
// simulator's own code from internal/clove: the receiver's relay record
// (clove.PeerPaths: port order, CE first, at most one relay per path per
// relay interval) and the sender's rule for applying what comes back
// (clove.WeightTable.OnFeedback).
//
// What the paper's OVS datapath gets from the fabric — outer-header ECN
// marks — a userspace process cannot portably observe on a UDP socket, so
// each datagram carries a one-byte fabric prefix standing in for the outer
// IP ECN field; the PathEmulator (and any Clove-aware middle hop) marks it
// under queueing. DESIGN.md documents this substitution.
//
// # Performance model (PR 9)
//
// The packet path is engineered with the same zero-allocation discipline as
// the simulator's hot path:
//
//   - Each path socket is a shard: its read loop goroutine owns a
//     preallocated receive ring and its transmit side owns a preallocated
//     send ring behind a shard-local mutex.
//   - The Clove state (flowlet position, weight table, the peer's relay
//     record, one probe slot per path) sits under one endpoint mutex. A send
//     takes it once; the receive path takes it only for a datagram that
//     carries a CE mark, feedback or a probe, never for plain data.
//   - On linux/amd64 and linux/arm64, datagrams move in batches via raw
//     recvmmsg/sendmmsg syscalls (mmsg_linux.go); everywhere else — and
//     under Config.NoBatchSyscalls — a portable one-datagram-per-syscall
//     path using the allocation-free netip socket API is used instead. The
//     two paths are differential-tested byte-identical.
//   - The steady-state Send and receive paths perform zero heap
//     allocations (asserted by tests); payloads larger than a transmit
//     slot take a documented allocating slow path.
//
// Ownership contract: the payload slice passed to the SetOnRecv callback
// aliases a shard-owned receive buffer and is valid only for the duration
// of the call. Callbacks that retain the payload must copy it.
package datapath

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clove/internal/clove"
	"clove/internal/sim"
	"clove/internal/wire"
)

// fabric prefix bits (stand-in for the outer IP ECN codepoint).
const (
	fabricECT = 1 << 0
	fabricCE  = 1 << 1
)

// headerLen is the datagram overhead: fabric byte + shim.
const headerLen = 1 + wire.SttShimLen

// shim version for this datapath.
const shimVersion = 1

// shim Flags bit marking a keepalive/feedback-only datagram.
const shimFlagBare = 1 << 5

// MaxPayload is the largest payload the shim's 16-bit length field can
// describe. Larger payloads are rejected with ErrPayloadTooLarge instead of
// being silently truncated to len mod 65536 and garbled at the peer.
const MaxPayload = 65535

// Ring geometry, the same for every endpoint. ringDepth is the depth of
// each shard's send ring and of its batched receive ring: the most
// datagrams one batched syscall moves, and the coalescing bound for
// Enqueue. slotSize is one transmit slot (fabric byte + shim + payload); a
// larger frame takes an allocating slow path. rxSlotSize is one receive
// slot: a whole UDP datagram, so every frame Send accepts arrives intact on
// every I/O path, and a GRO-coalesced super-datagram fits too.
const (
	ringDepth  = 32
	slotSize   = 2048
	rxSlotSize = 1 << 16
)

// ErrPayloadTooLarge is returned by Send/Enqueue for payloads over
// MaxPayload bytes.
var ErrPayloadTooLarge = errors.New("datapath: payload exceeds 65535 bytes")

// errNoRemote is returned when transmitting before a remote is configured
// (Start with a remote, or Retarget on a receive-only endpoint).
var errNoRemote = errors.New("datapath: no remote configured (call Start or Retarget first)")

// errNotStarted is returned by Retarget before Start.
var errNotStarted = errors.New("datapath: not started (call Start first)")

// Read-loop error backoff bounds: a persistent socket error must not
// busy-spin the shard goroutine, so consecutive failures sleep with
// exponential backoff between these bounds.
const (
	errBackoffMin = time.Millisecond
	errBackoffMax = 100 * time.Millisecond
)

// Config parameterizes an endpoint. The ring geometry is not a setting:
// every shard has ringDepth transmit slots of slotSize bytes, and every
// receive slot holds a whole UDP datagram, whichever I/O path is in use.
type Config struct {
	// Paths is the number of distinct outer source ports (= sockets) used.
	Paths int
	// FlowletGap splits the outgoing stream into flowlets.
	FlowletGap time.Duration
	// RelayInterval rate-limits feedback relays per path.
	RelayInterval time.Duration
	// NoBatchSyscalls forces the portable one-datagram-per-syscall I/O
	// path even on platforms where recvmmsg/sendmmsg batching is
	// available. Used by differential tests and apples-to-apples
	// benchmarks.
	NoBatchSyscalls bool
	// NoSegmentation disables UDP GSO/GRO on the batched path (one
	// super-datagram per flush segmented by the kernel), leaving plain
	// sendmmsg/recvmmsg. Only meaningful where batched syscalls are in
	// use; support is probed per socket at Start and degrades silently.
	NoSegmentation bool
}

// DefaultConfig returns LAN-scale defaults.
func DefaultConfig() Config {
	return Config{
		Paths:         4,
		FlowletGap:    500 * time.Microsecond,
		RelayInterval: 250 * time.Microsecond,
	}
}

// Stats counts endpoint activity.
type Stats struct {
	Sent, Received   int64
	CEObserved       int64
	FeedbackSent     int64
	FeedbackReceived int64
	Flowlets         int64
	DecodeErrors     int64
	// SocketErrors counts receive/transmit syscall failures (excluding
	// clean shutdown). A persistently erroring socket backs off instead of
	// spinning; this counter makes that visible.
	SocketErrors   int64
	ProbesSent     int64
	ProbesAnswered int64
	ProbeEchoes    int64
}

// Endpoint is one side of a Clove tunnel.
type Endpoint struct {
	cfg Config

	shards  []*pathShard
	ports   []uint16 // local source ports, one per path
	portIdx []int16  // dense port -> shard index + 1 (0 = unknown)

	// remoteAP is the current transmit target, nil until Start installs one
	// (receive-only endpoints stay nil until Retarget). It is an atomic
	// pointer so Retarget can re-point a live endpoint without stalling the
	// packet path: shards load it once per flush.
	remoteAP atomic.Pointer[netip.AddrPort]
	started  atomic.Bool

	// Hot-reloadable knobs (SetFlowletGap / SetRelayInterval), read on the
	// send path as single atomic loads so reconfiguration never contends
	// with traffic.
	flowletGapNs atomic.Int64
	relayNs      atomic.Int64

	onRecv atomic.Pointer[func(payload []byte)]
	start  time.Time

	// mu guards all of the endpoint's Clove state below. It is never held
	// across a transmit or the SetOnRecv callback (an echo's callback may
	// call Send), and code holding a shard's txMu never takes it.
	mu sync.Mutex

	// Flowlet position and the weight table its new flowlets pick from.
	lastSend time.Time
	curPort  uint16
	flowlet  uint32
	weights  *clove.WeightTable

	// peer holds the CE marks and path metrics observed on the peer's
	// forward paths until they are relayed, on the now() clock.
	peer clove.PeerPaths

	// Path-quality probing (ProbePaths): one slot per path index holding
	// its in-flight probe and its latest RTT sample.
	probeSeq uint32
	rtts     []rttSample

	// Send-side counters (the receive side counts per shard).
	sent         atomic.Int64
	flowlets     atomic.Int64
	feedbackSent atomic.Int64
	probesSent   atomic.Int64

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
}

// NewEndpoint creates an endpoint bound to cfg.Paths UDP sockets on
// localIP (use "127.0.0.1" for loopback tests; port 0 picks free ports).
func NewEndpoint(localIP string, cfg Config) (*Endpoint, error) {
	if cfg.Paths <= 0 {
		return nil, fmt.Errorf("datapath: need at least one path, got %d", cfg.Paths)
	}
	e := &Endpoint{
		cfg:     cfg,
		portIdx: make([]int16, 1<<16),
		start:   time.Now(),
		closed:  make(chan struct{}),
		rtts:    make([]rttSample, cfg.Paths),
	}
	for i := 0; i < cfg.Paths; i++ {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.ParseIP(localIP)})
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("datapath: bind path %d: %w", i, err)
		}
		// Large socket buffers absorb scheduling gaps between batched
		// drains; best-effort (the OS may clamp).
		conn.SetReadBuffer(4 << 20)
		conn.SetWriteBuffer(4 << 20)
		sh, err := newPathShard(e, i, conn)
		if err != nil {
			conn.Close()
			e.Close()
			return nil, fmt.Errorf("datapath: shard %d: %w", i, err)
		}
		e.shards = append(e.shards, sh)
		e.ports = append(e.ports, sh.port)
		e.portIdx[sh.port] = int16(i + 1)
	}
	// The paper's reaction rule, with congestion memory measured in relay
	// intervals rather than RTTs.
	wcfg := clove.DefaultWeightTableConfig(sim.FromDuration(cfg.RelayInterval))
	e.weights = clove.NewWeightTable(wcfg, e.ports)
	e.flowletGapNs.Store(int64(cfg.FlowletGap))
	e.relayNs.Store(int64(cfg.RelayInterval))
	return e, nil
}

// SetOnRecv installs the handler for decapsulated tenant payloads. Safe to
// call at any time, including after Start.
//
// Ownership: the payload aliases a receive-ring buffer owned by the
// delivering shard and is only valid until the callback returns; copy it to
// retain it.
func (e *Endpoint) SetOnRecv(fn func(payload []byte)) {
	if fn == nil {
		e.onRecv.Store(nil)
		return
	}
	e.onRecv.Store(&fn)
}

// Ports returns the endpoint's local source ports (its path identifiers).
func (e *Endpoint) Ports() []uint16 { return append([]uint16(nil), e.ports...) }

// BatchSyscallsSupported reports whether this platform has the batched
// recvmmsg/sendmmsg fast path compiled in (Config.NoBatchSyscalls opts a
// single endpoint out of it at runtime).
func BatchSyscallsSupported() bool { return batchSyscallsAvailable }

// PathWeight is one path's share of the weighted round-robin, in the
// deterministic sorted form returned by WeightsSorted.
type PathWeight struct {
	Port   uint16  `json:"port"`
	Weight float64 `json:"weight"`
}

// WeightsSorted returns the current path-weight snapshot sorted by port, so
// anything printed or serialized from it (the cloved stats line, the /stats
// admin endpoint) is the same run to run.
func (e *Endpoint) WeightsSorted() []PathWeight {
	e.mu.Lock()
	out := make([]PathWeight, 0, e.weights.Len())
	e.weights.VisitStates(func(p clove.PathState) {
		out = append(out, PathWeight{Port: p.Port, Weight: p.Weight})
	})
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Port < out[j].Port })
	return out
}

// SetFlowletGap hot-reloads the flowlet inter-packet gap. Safe concurrently
// with traffic; takes effect on the next Send. Non-positive values are
// ignored (the gap must stay meaningful for flowlet splitting).
func (e *Endpoint) SetFlowletGap(d time.Duration) {
	if d > 0 {
		e.flowletGapNs.Store(int64(d))
	}
}

// FlowletGap returns the current flowlet inter-packet gap.
func (e *Endpoint) FlowletGap() time.Duration {
	return time.Duration(e.flowletGapNs.Load())
}

// SetRelayInterval hot-reloads the feedback relay rate limit. Safe
// concurrently with traffic. Zero means "relay as fast as feedback is
// observed", the lowest pending port first; negative values are ignored.
// The weight table's staleness windows (CongestedAge/UtilAge) are fixed at
// construction from the initial Config.RelayInterval.
func (e *Endpoint) SetRelayInterval(d time.Duration) {
	if d >= 0 {
		e.relayNs.Store(int64(d))
	}
}

// RelayInterval returns the current feedback relay rate limit.
func (e *Endpoint) RelayInterval() time.Duration {
	return time.Duration(e.relayNs.Load())
}

// RemoteAddr returns the current transmit target, or "" for a receive-only
// endpoint.
func (e *Endpoint) RemoteAddr() string {
	if ap := e.remoteAP.Load(); ap != nil {
		return ap.String()
	}
	return ""
}

// Stats returns a snapshot of the counters, aggregated across shards.
func (e *Endpoint) Stats() Stats {
	s := Stats{
		Sent:         e.sent.Load(),
		Flowlets:     e.flowlets.Load(),
		FeedbackSent: e.feedbackSent.Load(),
		ProbesSent:   e.probesSent.Load(),
	}
	for _, sh := range e.shards {
		s.Received += sh.stats.received.Load()
		s.CEObserved += sh.stats.ceObserved.Load()
		s.FeedbackReceived += sh.stats.feedbackReceived.Load()
		s.DecodeErrors += sh.stats.decodeErrors.Load()
		s.SocketErrors += sh.stats.socketErrors.Load()
		s.ProbesAnswered += sh.stats.probesAnswered.Load()
		s.ProbeEchoes += sh.stats.probeEchoes.Load()
	}
	return s
}

// resolveRemote resolves a host:port into the unmapped netip form the
// socket paths use (4-in-6 ::ffff:a.b.c.d is unmapped so WriteToUDPAddrPort
// accepts the address on IPv4 sockets).
func resolveRemote(remote string) (netip.AddrPort, error) {
	addr, err := net.ResolveUDPAddr("udp", remote)
	if err != nil {
		return netip.AddrPort{}, fmt.Errorf("datapath: resolve %q: %w", remote, err)
	}
	ap := addr.AddrPort()
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()), nil
}

// Start begins receiving on all paths and, when remote is non-empty,
// connects the tunnel's transmit side to it (the peer's path-0 port or a
// fabric/emulator ingress). With remote == "" the endpoint starts
// receive-only: Send/Enqueue fail with a "no remote" error until Retarget
// installs a target. Calling Start again on a started endpoint delegates to
// Retarget, so operated callers can treat it as "ensure running, aimed
// here".
func (e *Endpoint) Start(remote string) error {
	if e.started.Load() {
		if remote == "" {
			return nil
		}
		return e.Retarget(remote)
	}
	if remote != "" {
		ap, err := resolveRemote(remote)
		if err != nil {
			return err
		}
		e.remoteAP.Store(&ap)
	}
	for _, sh := range e.shards {
		// The batched I/O machinery bakes a sockaddr into its send headers;
		// a receive-only endpoint aims it at the shard's own local address
		// until Retarget rewrites it (nothing is transmitted before then).
		target := e.remoteAP.Load()
		var ap netip.AddrPort
		if target != nil {
			ap = *target
		} else {
			lap := sh.conn.LocalAddr().(*net.UDPAddr).AddrPort()
			ap = netip.AddrPortFrom(lap.Addr().Unmap(), lap.Port())
		}
		sh.initIO(ap)
	}
	for _, sh := range e.shards {
		e.wg.Add(1)
		go sh.readLoop()
	}
	e.started.Store(true)
	return nil
}

// Retarget re-points a live endpoint's transmit side at a new remote
// without dropping the sockets, the read loops, or any accumulated path
// state (weights, RTT samples, flowlet position) — the hot-reload half of
// operated serving. Frames already enqueued are flushed to the old remote
// first so no queued datagram is silently redirected mid-batch.
func (e *Endpoint) Retarget(remote string) error {
	if !e.started.Load() {
		return errNotStarted
	}
	ap, err := resolveRemote(remote)
	if err != nil {
		return err
	}
	var first error
	for _, sh := range e.shards {
		sh.txMu.Lock()
		if ferr := sh.flushLocked(); ferr != nil && !errors.Is(ferr, errNoRemote) && first == nil {
			first = ferr
		}
		if sh.bio != nil {
			if rerr := sh.bio.retarget(ap); rerr != nil && first == nil {
				first = rerr
			}
		}
		sh.txMu.Unlock()
	}
	e.remoteAP.Store(&ap)
	return first
}

// Drain performs the graceful-shutdown half of the endpoint contract: flush
// every shard's pending transmit ring to the wire, then close the sockets
// and wait — bounded by timeout — for the read loops to exit. A zero or
// negative timeout waits indefinitely (plain Close semantics). On timeout
// the endpoint is still closing in the background; Drain just stops
// waiting and reports it.
func (e *Endpoint) Drain(timeout time.Duration) error {
	flushErr := e.Flush()
	if errors.Is(flushErr, errNoRemote) {
		flushErr = nil // receive-only: nothing pending to flush
	}
	done := make(chan error, 1)
	go func() { done <- e.Close() }()
	if timeout <= 0 {
		if err := <-done; err != nil && flushErr == nil {
			flushErr = err
		}
		return flushErr
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case err := <-done:
		if err != nil && flushErr == nil {
			flushErr = err
		}
		return flushErr
	case <-t.C:
		return fmt.Errorf("datapath: drain: close did not complete within %v", timeout)
	}
}

// now returns monotonic time as sim.Time for the shared weight logic.
func (e *Endpoint) now() sim.Time { return sim.FromDuration(time.Since(e.start)) }

// shardFor maps a local path port to its shard via the dense index.
func (e *Endpoint) shardFor(port uint16) *pathShard {
	if i := e.portIdx[port]; i > 0 {
		return e.shards[i-1]
	}
	return nil
}

// Send encapsulates payload and transmits it on the current flowlet's path,
// piggybacking pending feedback. It flushes the path's send ring, so the
// datagram (and any batch built up by Enqueue) is on the wire when Send
// returns.
func (e *Endpoint) Send(payload []byte) error { return e.send(payload, true) }

// Enqueue is Send's batching variant: the datagram is placed in its path's
// preallocated send ring and the ring is flushed with one batched syscall
// when it fills (ringDepth datagrams) or when Send/Flush is called.
// High-throughput callers use Enqueue in their inner loop and Flush at
// natural boundaries.
func (e *Endpoint) Enqueue(payload []byte) error { return e.send(payload, false) }

func (e *Endpoint) send(payload []byte, flush bool) error {
	if len(payload) > MaxPayload {
		return ErrPayloadTooLarge
	}
	e.mu.Lock()
	nowT := time.Now()
	if e.lastSend.IsZero() || nowT.Sub(e.lastSend) > time.Duration(e.flowletGapNs.Load()) {
		e.curPort = e.weights.NextPort()
		e.flowlet++
		e.flowlets.Add(1)
	}
	e.lastSend = nowT
	port := e.curPort
	flowlet := e.flowlet
	fb := e.takeFeedbackLocked(nowT)
	e.mu.Unlock()
	err := e.transmit(port, flowlet, fb, payload, 0, flush)
	if err != nil {
		// Not counted as sent: a drain-time caller comparing Stats().Sent
		// against the receiver's delivery count must not see frames that
		// never made it to a socket.
		return err
	}
	e.sent.Add(1)
	if fb.Valid {
		e.feedbackSent.Add(1)
	}
	return nil
}

// Flush pushes every shard's pending send ring to the wire. It returns the
// first error encountered (all shards are still flushed).
func (e *Endpoint) Flush() error {
	var first error
	for _, sh := range e.shards {
		sh.txMu.Lock()
		if err := sh.flushLocked(); err != nil && first == nil {
			first = err
		}
		sh.txMu.Unlock()
	}
	return first
}

// transmit encodes one datagram into the send ring of the socket bound to
// port and flushes it if flush is set (control traffic — keepalives, probes,
// probe echoes — always is) or if the ring filled.
func (e *Endpoint) transmit(port uint16, flowlet uint32, fb wire.Feedback, payload []byte, extraFlags uint8, flush bool) error {
	if e.remoteAP.Load() == nil {
		return errNoRemote
	}
	sh := e.shardFor(port)
	if sh == nil {
		return fmt.Errorf("datapath: unknown path port %d", port)
	}
	frameLen := headerLen + len(payload)

	sh.txMu.Lock()
	defer sh.txMu.Unlock()
	if frameLen > slotSize {
		// Slow path for payloads over a transmit slot: flush what is
		// queued so order holds, then send from a one-off buffer. This
		// allocates.
		if err := sh.flushLocked(); err != nil {
			return err
		}
		buf := make([]byte, frameLen)
		encodeFrame(buf, port, flowlet, fb, payload, extraFlags)
		return sh.writeOne(buf)
	}
	slot := sh.txBufs[sh.txCnt]
	n := encodeFrame(slot[:frameLen], port, flowlet, fb, payload, extraFlags)
	sh.txLen[sh.txCnt] = n
	sh.txCnt++
	if flush || sh.txCnt == len(sh.txBufs) {
		return sh.flushLocked()
	}
	return nil
}

// encodeFrame writes fabric byte + shim + payload into dst (sized by the
// caller) and returns the frame length. Zero allocations.
func encodeFrame(dst []byte, port uint16, flowlet uint32, fb wire.Feedback, payload []byte, extraFlags uint8) int {
	shim := wire.SttShim{
		Version:    shimVersion,
		Flags:      extraFlags,
		FlowletID:  flowlet,
		Feedback:   fb,
		PathPort:   port,
		PayloadLen: uint16(len(payload)),
	}
	dst[0] = fabricECT
	shim.Put(dst[1:])
	n := copy(dst[headerLen:], payload)
	return headerLen + n
}

// handleFrame processes one received datagram on sh's goroutine. b aliases
// the shard's receive ring (or the portable read buffer); everything that
// escapes this call must be copied.
func (e *Endpoint) handleFrame(sh *pathShard, b []byte) {
	if len(b) < headerLen {
		sh.stats.decodeErrors.Add(1)
		return
	}
	fabric := b[0]
	var shim wire.SttShim
	if _, err := shim.Unmarshal(b[1:]); err != nil || shim.Version != shimVersion {
		sh.stats.decodeErrors.Add(1)
		return
	}
	payload := b[headerLen:]
	if int(shim.PayloadLen) != len(payload) {
		sh.stats.decodeErrors.Add(1)
		return
	}

	switch {
	case shim.Flags&shimFlagProbe != 0:
		e.handleProbe(sh, &shim)
		return
	case shim.Flags&shimFlagProbeEcho != 0:
		e.handleProbeEcho(sh, &shim)
		return
	}

	// The shim restates the sender's outer source port, the path's name
	// (Sec. 3.2), so path attribution survives middle hops that rewrite the
	// outer header (the emulator, a NAT).
	sh.stats.received.Add(1)
	if ce, fb := fabric&fabricCE != 0, shim.Feedback; ce || fb.Valid {
		e.mu.Lock()
		if ce {
			sh.stats.ceObserved.Add(1)
			e.peer.NoteCE(shim.PathPort)
		}
		if fb.Valid {
			sh.stats.feedbackReceived.Add(1)
			e.weights.OnFeedback(fb, e.now())
		}
		e.mu.Unlock()
	}
	if recv := e.onRecv.Load(); recv != nil && shim.Flags&shimFlagBare == 0 {
		(*recv)(payload)
	}
}

// takeFeedbackLocked takes the observation due for relay at t, if any, by
// the rule the simulator's vswitch uses (clove.PeerPaths.Take). Send calls it
// for every datagram, so an empty record returns before the clock is
// converted. Caller holds mu.
func (e *Endpoint) takeFeedbackLocked(t time.Time) wire.Feedback {
	if e.peer.Len() == 0 {
		return wire.Feedback{}
	}
	fb, _ := e.peer.Take(sim.FromDuration(t.Sub(e.start)), sim.FromDuration(time.Duration(e.relayNs.Load())))
	return fb
}

// Keepalive sends a payload-less datagram (feedback carrier / BFD-style
// liveness) on every path. A no-op on a receive-only endpoint.
func (e *Endpoint) Keepalive() {
	if e.remoteAP.Load() == nil {
		return
	}
	e.mu.Lock()
	fb := e.takeFeedbackLocked(time.Now())
	e.mu.Unlock()
	for _, port := range e.ports {
		// The feedback rides the first path and counts only if written.
		if e.transmit(port, 0, fb, nil, shimFlagBare, true) == nil && fb.Valid {
			e.feedbackSent.Add(1)
		}
		fb = wire.Feedback{}
	}
}

// Close shuts down all sockets and waits for readers to exit. Idempotent
// and safe to call concurrently; every call waits for the readers.
func (e *Endpoint) Close() error {
	e.closeOnce.Do(func() {
		close(e.closed)
		for _, sh := range e.shards {
			sh.conn.Close()
		}
	})
	e.wg.Wait()
	return nil
}
