package datapath

// PR 9 battery: zero-allocation contracts for the steady-state send and
// receive paths, batched-vs-fallback differential equivalence, read-loop
// error backoff, payload-size boundaries, and deterministic feedback relay.

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clove/internal/wire"
)

// pairCfg creates a connected a->b, b->a endpoint pair with cfg.
func pairCfg(t *testing.T, cfg Config) (*Endpoint, *Endpoint) {
	t.Helper()
	a, err := NewEndpoint("127.0.0.1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEndpoint("127.0.0.1", cfg)
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	if err := a.Start(fmt.Sprintf("127.0.0.1:%d", b.Ports()[0])); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(fmt.Sprintf("127.0.0.1:%d", a.Ports()[0])); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// --- payload-size boundary (silent uint16 truncation fix) ---

func TestSendPayloadSizeBoundary(t *testing.T) {
	a, _ := pair(t, DefaultConfig())
	// 65535 is representable in the shim: it must not be rejected as
	// oversize. (The kernel may still refuse the oversized datagram with
	// EMSGSIZE — that is a socket-level error, not silent truncation.)
	if err := a.Send(make([]byte, MaxPayload)); errors.Is(err, ErrPayloadTooLarge) {
		t.Errorf("65535-byte payload rejected as too large: %v", err)
	}
	// 65536 would wrap PayloadLen to 0 and arrive garbled: explicit error.
	if err := a.Send(make([]byte, MaxPayload+1)); !errors.Is(err, ErrPayloadTooLarge) {
		t.Errorf("65536-byte payload not rejected, got %v", err)
	}
	if err := a.Enqueue(make([]byte, MaxPayload+1)); !errors.Is(err, ErrPayloadTooLarge) {
		t.Errorf("Enqueue 65536-byte payload not rejected, got %v", err)
	}
}

// --- deterministic feedback relay (the simulator's rule) ---

// takeAt takes the relay due d after e's start, on that explicit clock.
func takeAt(e *Endpoint, d time.Duration) wire.Feedback {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.takeFeedbackLocked(e.start.Add(d))
}

// relayRound takes relays at d until none is due and returns their ports.
func relayRound(e *Endpoint, d time.Duration) string {
	var got []uint16
	for fb := takeAt(e, d); fb.Valid; fb = takeAt(e, d) {
		got = append(got, fb.Port)
	}
	return fmt.Sprint(got)
}

// markCE records a CE mark from the peer's path port, as handleFrame does.
func markCE(e *Endpoint, port uint16) {
	e.mu.Lock()
	e.peer.NoteCE(port)
	e.mu.Unlock()
}

func TestTakeFeedbackPortOrderDeterministic(t *testing.T) {
	const interval = time.Millisecond
	cfg := DefaultConfig()
	cfg.Paths = 1
	cfg.RelayInterval = interval
	e, err := NewEndpoint("127.0.0.1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if got := relayRound(e, 0); got != "[]" {
		t.Fatalf("relays %s from an empty record", got)
	}
	// Port order, not the order the marks arrived in.
	for _, p := range []uint16{30, 10, 20} {
		markCE(e, p)
	}
	if got := relayRound(e, 0); got != "[10 20 30]" {
		t.Fatalf("relay order = %s, want [10 20 30]", got)
	}
	// At most one relay per path per interval: marks taken again half an
	// interval later wait until the interval has passed.
	for _, p := range []uint16{30, 10, 20} {
		markCE(e, p)
	}
	if got := relayRound(e, interval/2); got != "[]" {
		t.Fatalf("relays %s within one interval of the last", got)
	}
	if got := relayRound(e, interval); got != "[10 20 30]" {
		t.Fatalf("relay order after the interval = %s, want [10 20 30]", got)
	}

	// A lower port re-marked before every take cannot starve the higher
	// ones: it is relayed once per interval, and every other pending path
	// within one interval of its mark.
	const start = 10 * interval
	markCE(e, 20)
	markCE(e, 30)
	relayed := map[uint16][]time.Duration{}
	for d := start; d < start+3*interval; d += interval / 4 {
		markCE(e, 10)
		if fb := takeAt(e, d); fb.Valid {
			relayed[fb.Port] = append(relayed[fb.Port], d-start)
		}
	}
	want := map[uint16][]time.Duration{
		10: {0, interval, 2 * interval},
		20: {interval / 4},
		30: {interval / 2},
	}
	if fmt.Sprint(relayed) != fmt.Sprint(want) {
		t.Fatalf("relay times = %v, want %v", relayed, want)
	}
}

// ceKeepalive encodes a bare keepalive the peer sent on its path peerPort,
// CE-marked by the fabric and carrying fb.
func ceKeepalive(peerPort uint16, fb wire.Feedback) []byte {
	b := make([]byte, headerLen)
	encodeFrame(b, peerPort, 0, fb, nil, shimFlagBare)
	b[0] |= fabricCE
	return b
}

func TestTakeFeedbackAcrossShards(t *testing.T) {
	const interval = time.Millisecond
	cfg := DefaultConfig()
	cfg.Paths = 2
	cfg.RelayInterval = interval
	e, err := NewEndpoint("127.0.0.1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// A peer aiming at two of our ports: CE arrives on shards 0, 1, 0.
	mark := func() {
		e.handleFrame(e.shards[0], ceKeepalive(10, wire.Feedback{}))
		e.handleFrame(e.shards[1], ceKeepalive(99, wire.Feedback{}))
		e.handleFrame(e.shards[0], ceKeepalive(11, wire.Feedback{}))
	}
	mark()
	if got := relayRound(e, 0); got != "[10 11 99]" {
		t.Fatalf("cross-shard relay order = %s, want [10 11 99]", got)
	}
	mark()
	if got := relayRound(e, interval-1); got != "[]" {
		t.Fatalf("relayed %s within one interval of the last round", got)
	}
	if got := relayRound(e, interval); got != "[10 11 99]" {
		t.Fatalf("relay order one interval later = %s, want [10 11 99]", got)
	}
}

// TestConcurrentSendReceiveControl drives every entry into the endpoint's
// Clove state at once: data from two sending goroutines, the control calls
// in a loop, and CE+feedback frames on both receive shards. Under -race it
// pins that the flowlet, weight, observation and probe state are all
// guarded; the counts pin that nothing is lost or double-counted.
func TestConcurrentSendReceiveControl(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Paths = 2
	cfg.RelayInterval = 0
	a, b := pairCfg(t, cfg)
	var got atomic.Int64
	b.SetOnRecv(func([]byte) { got.Add(1) })

	const n = 200
	payload := make([]byte, 64)
	var frames [2][]byte
	for k := range frames {
		frames[k] = ceKeepalive(b.ports[k], wire.Feedback{Valid: true, Port: a.ports[k], ECN: true})
	}
	var wg sync.WaitGroup
	sender := func(send func() error) {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := send(); err != nil {
				t.Error(err)
				return
			}
			// Paced: a correctness run, not a flood the socket buffer drops.
			time.Sleep(50 * time.Microsecond)
		}
	}
	wg.Add(3)
	go sender(func() error { return a.Send(payload) })
	go sender(func() error {
		if err := a.Enqueue(payload); err != nil {
			return err
		}
		return a.Flush()
	})
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			a.handleFrame(a.shards[i%2], frames[i%2])
		}
	}()
	stop := make(chan struct{})
	ctlDone := make(chan struct{})
	go func() {
		defer close(ctlDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			a.Keepalive()
			a.ProbePaths()
			a.WeightsSorted()
			a.PathRTTs()
			a.Stats()
			// Yield, or with one P this loop starves the senders.
			time.Sleep(100 * time.Microsecond)
		}
	}()
	wg.Wait()
	close(stop)
	<-ctlDone

	waitFor(t, 5*time.Second, func() bool { return got.Load() == 2*n }, "every payload at the peer")
	st := a.Stats()
	if st.Sent != 2*n {
		t.Errorf("Sent = %d, want %d", st.Sent, 2*n)
	}
	if st.FeedbackReceived < n {
		t.Errorf("FeedbackReceived = %d, want >= %d", st.FeedbackReceived, n)
	}
	if db := b.Stats().DecodeErrors; st.DecodeErrors != 0 || db != 0 {
		t.Errorf("decode errors: %d at a, %d at b", st.DecodeErrors, db)
	}
	sum := 0.0
	for _, pw := range a.WeightsSorted() {
		sum += pw.Weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v, want 1", sum)
	}
}

// --- read-loop backoff (busy-spin fix) ---

func TestNextBackoffBounded(t *testing.T) {
	d := errBackoffMin
	seen := []time.Duration{d}
	for i := 0; i < 12; i++ {
		d = nextBackoff(d)
		seen = append(seen, d)
	}
	if seen[1] != 2*errBackoffMin {
		t.Errorf("backoff does not double: %v", seen[:3])
	}
	if d != errBackoffMax {
		t.Errorf("backoff cap = %v, want %v", d, errBackoffMax)
	}
	if nextBackoff(errBackoffMax) != errBackoffMax {
		t.Error("backoff exceeds cap")
	}
}

func TestReadLoopNoBusySpinOnSocketError(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Paths = 2
	a, b := pairCfg(t, cfg)
	b.SetOnRecv(func([]byte) {})

	// Kill one of a's sockets out from under its read loop (not via
	// Close): the loop must count the error and terminate — the old code
	// hot-spun on `continue` forever.
	a.shards[1].conn.Close()
	deadline := time.Now().Add(2 * time.Second)
	for a.Stats().SocketErrors == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	n1 := a.Stats().SocketErrors
	if n1 == 0 {
		t.Fatal("socket error never counted")
	}
	time.Sleep(100 * time.Millisecond)
	if n2 := a.Stats().SocketErrors; n2 != n1 {
		t.Errorf("socket error counter still growing (%d -> %d): read loop is spinning", n1, n2)
	}
	// The surviving paths still deliver.
	var got int64
	var mu sync.Mutex
	b.SetOnRecv(func([]byte) { mu.Lock(); got++; mu.Unlock() })
	for i := 0; i < 5; i++ {
		// Path 0 is b's ingress; a's dead socket only breaks a's own
		// receive on path 1.
		if err := a.transmit(a.ports[0], 1, wire.Feedback{}, []byte("x"), 0, true); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool { mu.Lock(); defer mu.Unlock(); return got == 5 }, "delivery after socket loss")
}

// --- batched vs fallback differential ---

// collectPayloads drains n seq-tagged payloads into an indexed table.
type collector struct {
	mu   sync.Mutex
	got  map[int][]byte
	dups int
}

func newCollector() *collector { return &collector{got: map[int][]byte{}} }

func (c *collector) fn(p []byte) {
	if len(p) < 4 {
		return
	}
	seq := int(p[0])<<24 | int(p[1])<<16 | int(p[2])<<8 | int(p[3])
	c.mu.Lock()
	if _, ok := c.got[seq]; ok {
		c.dups++
	} else {
		c.got[seq] = append([]byte(nil), p...)
	}
	c.mu.Unlock()
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func seqPayload(seq, size int) []byte {
	p := make([]byte, size)
	p[0], p[1], p[2], p[3] = byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq)
	for i := 4; i < size; i++ {
		p[i] = byte(seq * (i + 7))
	}
	return p
}

// seqOf reads the sequence number seqPayload wrote, for messages.
func seqOf(p []byte) string {
	if len(p) < 4 {
		return "?"
	}
	return fmt.Sprint(int(p[0])<<24 | int(p[1])<<16 | int(p[2])<<8 | int(p[3]))
}

// runTransfer pushes n payloads a->b using Enqueue/Flush and returns the
// receiver's indexed copies.
func runTransfer(t *testing.T, cfg Config, n int) map[int][]byte {
	t.Helper()
	a, b := pairCfg(t, cfg)
	col := newCollector()
	b.SetOnRecv(col.fn)
	for i := 0; i < n; i++ {
		if err := a.Enqueue(seqPayload(i, 600)); err != nil {
			t.Fatal(err)
		}
		if i%8 == 7 {
			if err := a.Flush(); err != nil {
				t.Fatal(err)
			}
			// Pace gently: this is a correctness transfer, not a flood.
			time.Sleep(200 * time.Microsecond)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return col.count() == n }, "differential transfer")
	if col.dups != 0 {
		t.Fatalf("%d duplicate datagrams", col.dups)
	}
	return col.got
}

func TestBatchedFallbackDifferential(t *testing.T) {
	if !batchSyscallsAvailable {
		t.Skip("batched syscalls unavailable on this platform")
	}
	const n = 200
	batched := DefaultConfig()
	fallback := DefaultConfig()
	fallback.NoBatchSyscalls = true
	// Plain mmsg without GSO/GRO. Its receive ring is mapped, like the
	// GSO/GRO flavour's, so -race sees ring bytes on the portable path
	// alone, which this test drives too.
	mmsg := DefaultConfig()
	mmsg.NoSegmentation = true

	gotB := runTransfer(t, batched, n)
	gotF := runTransfer(t, fallback, n)
	gotM := runTransfer(t, mmsg, n)
	for i := 0; i < n; i++ {
		want := seqPayload(i, 600)
		if string(gotB[i]) != string(want) {
			t.Fatalf("batched payload %d corrupted", i)
		}
		if string(gotB[i]) != string(gotF[i]) {
			t.Fatalf("batched and fallback payloads differ at %d", i)
		}
		if string(gotB[i]) != string(gotM[i]) {
			t.Fatalf("batched and plain-mmsg payloads differ at %d", i)
		}
	}
}

// TestLargePayloadsOnEveryIOPath sends, on each I/O path, three small
// queued frames and then payloads around and past a transmit slot: the
// largest that fits one, one byte more (the first on the allocating slow
// path), 4,000 B and 65,000 B. Every receive slot holds a whole UDP
// datagram, so all seven must arrive in order and byte-identical, with no
// decode error. Where batched syscalls are unavailable, every row runs the
// portable path.
func TestLargePayloadsOnEveryIOPath(t *testing.T) {
	for _, io := range []struct {
		name           string
		noBatch, noSeg bool
	}{
		{"gso-gro", false, false},
		{"mmsg", false, true},
		{"portable", true, false},
	} {
		t.Run(io.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.FlowletGap = time.Hour // one flowlet: every frame rides one path
			cfg.NoBatchSyscalls = io.noBatch
			cfg.NoSegmentation = io.noSeg
			a, b := pairCfg(t, cfg)
			var mu sync.Mutex
			var got [][]byte
			b.SetOnRecv(func(p []byte) {
				mu.Lock()
				got = append(got, append([]byte(nil), p...))
				mu.Unlock()
			})
			var want [][]byte
			for _, n := range []int{16, 64, 200} {
				want = append(want, seqPayload(len(want), n))
				if err := a.Enqueue(want[len(want)-1]); err != nil {
					t.Fatal(err)
				}
			}
			for _, n := range []int{slotSize - headerLen, slotSize - headerLen + 1, 4000, 65000} {
				want = append(want, seqPayload(len(want), n))
				if err := a.Send(want[len(want)-1]); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, 5*time.Second, func() bool {
				mu.Lock()
				defer mu.Unlock()
				return len(got) == len(want) || b.Stats().DecodeErrors > 0
			}, "every frame")
			mu.Lock()
			defer mu.Unlock()
			if s := b.Stats(); s.DecodeErrors != 0 || len(got) != len(want) {
				t.Fatalf("received %d of %d frames, DecodeErrors = %d", len(got), len(want), s.DecodeErrors)
			}
			for i := range want {
				if string(got[i]) != string(want[i]) {
					t.Errorf("frame %d: got %d bytes (seq %s), want %d bytes (seq %d)", i, len(got[i]), seqOf(got[i]), len(want[i]), i)
				}
			}
		})
	}
}

// TestBatchedFallbackInterop crosses the two I/O paths on one wire: a
// batched sender feeding a fallback receiver and vice versa, proving the
// syscall seam changes nothing about the bytes on the wire.
func TestBatchedFallbackInterop(t *testing.T) {
	if !batchSyscallsAvailable {
		t.Skip("batched syscalls unavailable on this platform")
	}
	const n = 100
	mk := func(noBatch bool) *Endpoint {
		cfg := DefaultConfig()
		cfg.NoBatchSyscalls = noBatch
		e, err := NewEndpoint("127.0.0.1", cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	for _, dir := range []struct {
		name             string
		sendNoB, recvNoB bool
	}{
		{"batched->fallback", false, true},
		{"fallback->batched", true, false},
	} {
		snd, rcv := mk(dir.sendNoB), mk(dir.recvNoB)
		if err := snd.Start(fmt.Sprintf("127.0.0.1:%d", rcv.Ports()[0])); err != nil {
			t.Fatal(err)
		}
		if err := rcv.Start(fmt.Sprintf("127.0.0.1:%d", snd.Ports()[0])); err != nil {
			t.Fatal(err)
		}
		col := newCollector()
		rcv.SetOnRecv(col.fn)
		for i := 0; i < n; i++ {
			if err := snd.Enqueue(seqPayload(i, 300)); err != nil {
				t.Fatal(err)
			}
			if i%16 == 15 {
				snd.Flush()
				time.Sleep(200 * time.Microsecond)
			}
		}
		snd.Flush()
		waitFor(t, 5*time.Second, func() bool { return col.count() == n }, dir.name)
		for i := 0; i < n; i++ {
			if string(col.got[i]) != string(seqPayload(i, 300)) {
				t.Fatalf("%s: payload %d corrupted", dir.name, i)
			}
		}
	}
}

// --- zero-allocation contracts ---

func TestSteadyStateSendZeroAlloc(t *testing.T) {
	for _, mode := range []struct {
		name    string
		noBatch bool
	}{{"batched", false}, {"fallback", true}} {
		if !batchSyscallsAvailable && !mode.noBatch {
			continue
		}
		t.Run(mode.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.NoBatchSyscalls = mode.noBatch
			a, b := pairCfg(t, cfg)
			b.SetOnRecv(func([]byte) {})
			payload := make([]byte, 512)
			for i := 0; i < 100; i++ { // warm rings, WRR, flowlet state
				if err := a.Send(payload); err != nil {
					t.Fatal(err)
				}
			}
			if n := testing.AllocsPerRun(500, func() { a.Send(payload) }); n != 0 {
				t.Errorf("steady-state Send allocates %v/op, contract is 0", n)
			}
			// A Send that piggybacks a pending relay: the mark is noted on
			// a path already in the record, and a zero relay interval makes
			// it due on every send.
			a.SetRelayInterval(0)
			markCE(a, 40001)
			a.Send(payload)
			sentFb := a.Stats().FeedbackSent
			if n := testing.AllocsPerRun(500, func() {
				markCE(a, 40001)
				a.Send(payload)
			}); n != 0 {
				t.Errorf("Send piggybacking a relay allocates %v/op, contract is 0", n)
			}
			if got := a.Stats().FeedbackSent - sentFb; got != 501 {
				t.Errorf("%d of 501 sends piggybacked the pending relay", got)
			}
			if n := testing.AllocsPerRun(500, func() { a.Enqueue(payload) }); n != 0 {
				t.Errorf("steady-state Enqueue allocates %v/op, contract is 0", n)
			}
			a.Flush()
			if n := testing.AllocsPerRun(500, func() {
				a.Enqueue(payload)
				a.Flush()
			}); n != 0 {
				t.Errorf("steady-state Enqueue+Flush allocates %v/op, contract is 0", n)
			}
		})
	}
}

func TestSteadyStateReceiveZeroAlloc(t *testing.T) {
	cfg := DefaultConfig()
	a, _ := pairCfg(t, cfg)
	a.SetOnRecv(func([]byte) {})
	sh := a.shards[0]

	frame := make([]byte, headerLen+512)
	encodeFrame(frame, 40001, 7, wire.Feedback{}, make([]byte, 512), 0)

	// Steady-state data datagram (no CE, no feedback): the dominant path.
	a.handleFrame(sh, frame)
	if n := testing.AllocsPerRun(1000, func() { a.handleFrame(sh, frame) }); n != 0 {
		t.Errorf("steady-state receive allocates %v/op, contract is 0", n)
	}

	// CE-marked datagram for an already-observed peer port: still zero
	// (only the first observation of a port allocates its entry).
	ce := make([]byte, headerLen+512)
	encodeFrame(ce, 40001, 7, wire.Feedback{}, make([]byte, 512), 0)
	ce[0] |= fabricCE
	a.handleFrame(sh, ce)
	if n := testing.AllocsPerRun(1000, func() { a.handleFrame(sh, ce) }); n != 0 {
		t.Errorf("CE receive allocates %v/op after first observation, contract is 0", n)
	}

	// ECN feedback for an installed port: the weight table's reaction
	// (OnCongestion, then the WRR resync) reuses the table's arrays.
	fb := make([]byte, headerLen+512)
	encodeFrame(fb, 40001, 7, wire.Feedback{Valid: true, Port: a.Ports()[0], ECN: true}, make([]byte, 512), 0)
	a.handleFrame(sh, fb)
	if n := testing.AllocsPerRun(1000, func() { a.handleFrame(sh, fb) }); n != 0 {
		t.Errorf("ECN-feedback receive allocates %v/op, contract is 0", n)
	}
	if w := a.weights.Weights()[a.Ports()[0]]; w >= 1.0/float64(cfg.Paths) {
		t.Errorf("reported port keeps weight %v after ECN feedback; the frame is miswired", w)
	}
}
