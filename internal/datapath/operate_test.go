package datapath

// PR 10 battery: the operated-endpoint contract — hot-reloadable knobs
// (SetFlowletGap/SetRelayInterval), live retargeting without dropping the
// endpoint, receive-only start, graceful drain, idempotent close, and the
// deterministic sorted weight form.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clove/internal/wire"
)

// newCounting returns a receive-only endpoint counting deliveries.
func newCounting(t *testing.T, cfg Config) (*Endpoint, *atomic.Int64) {
	t.Helper()
	ep, err := NewEndpoint("127.0.0.1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	var got atomic.Int64
	ep.SetOnRecv(func([]byte) { got.Add(1) })
	if err := ep.Start(""); err != nil {
		t.Fatal(err)
	}
	return ep, &got
}

func eachIOMode(t *testing.T, fn func(t *testing.T, cfg Config)) {
	for _, mode := range []struct {
		name    string
		noBatch bool
	}{{"batched", false}, {"fallback", true}} {
		if !batchSyscallsAvailable && !mode.noBatch {
			continue
		}
		t.Run(mode.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Paths = 2
			cfg.NoBatchSyscalls = mode.noBatch
			fn(t, cfg)
		})
	}
}

func TestReceiveOnlyStartThenRetarget(t *testing.T) {
	eachIOMode(t, func(t *testing.T, cfg Config) {
		recv, got := newCounting(t, cfg)

		snd, err := NewEndpoint("127.0.0.1", cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer snd.Close()
		// Receive-only: transmitting must fail until a remote is installed.
		if err := snd.Start(""); err != nil {
			t.Fatal(err)
		}
		if err := snd.Send([]byte("x")); err == nil {
			t.Fatal("Send succeeded without a remote")
		}
		if snd.RemoteAddr() != "" {
			t.Errorf("receive-only RemoteAddr = %q", snd.RemoteAddr())
		}
		// Retarget turns the receive-only endpoint into a sender without
		// restarting it.
		target := fmt.Sprintf("127.0.0.1:%d", recv.Ports()[0])
		if err := snd.Retarget(target); err != nil {
			t.Fatal(err)
		}
		if snd.RemoteAddr() != target {
			t.Errorf("RemoteAddr = %q, want %q", snd.RemoteAddr(), target)
		}
		for i := 0; i < 10; i++ {
			if err := snd.Send([]byte("after retarget")); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, 2*time.Second, func() bool { return got.Load() == 10 }, "delivery after retarget")
	})
}

func TestRetargetBeforeStartErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Paths = 1
	ep, err := NewEndpoint("127.0.0.1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := ep.Retarget("127.0.0.1:9"); err == nil {
		t.Fatal("Retarget before Start succeeded")
	}
}

func TestRetargetMidTransferRedirects(t *testing.T) {
	eachIOMode(t, func(t *testing.T, cfg Config) {
		r1, got1 := newCounting(t, cfg)
		r2, got2 := newCounting(t, cfg)

		snd, err := NewEndpoint("127.0.0.1", cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer snd.Close()
		if err := snd.Start(fmt.Sprintf("127.0.0.1:%d", r1.Ports()[0])); err != nil {
			t.Fatal(err)
		}
		const half = 50
		for i := 0; i < half; i++ {
			if err := snd.Send([]byte("phase-1")); err != nil {
				t.Fatal(err)
			}
		}
		// Start again on a live endpoint = Retarget (the hot-reload path).
		if err := snd.Start(fmt.Sprintf("127.0.0.1:%d", r2.Ports()[0])); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < half; i++ {
			if err := snd.Send([]byte("phase-2")); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, 2*time.Second, func() bool { return got1.Load()+got2.Load() == 2*half }, "both phases delivered")
		if got1.Load() != half || got2.Load() != half {
			t.Errorf("split = %d/%d, want %d/%d", got1.Load(), got2.Load(), half, half)
		}
		if st := snd.Stats(); st.SocketErrors != 0 {
			t.Errorf("socket errors during retarget: %d", st.SocketErrors)
		}
	})
}

func TestSetFlowletGapHotReload(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Paths = 2
	cfg.FlowletGap = time.Hour // one giant flowlet
	a, b := pairCfg(t, cfg)
	b.SetOnRecv(func([]byte) {})
	for i := 0; i < 5; i++ {
		if err := a.Send([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if fl := a.Stats().Flowlets; fl != 1 {
		t.Fatalf("flowlets before reload = %d, want 1", fl)
	}
	a.SetFlowletGap(time.Nanosecond) // every send is its own flowlet
	if got := a.FlowletGap(); got != time.Nanosecond {
		t.Fatalf("FlowletGap = %v after SetFlowletGap", got)
	}
	for i := 0; i < 5; i++ {
		time.Sleep(10 * time.Microsecond)
		if err := a.Send([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if fl := a.Stats().Flowlets; fl < 4 {
		t.Errorf("flowlets after reload = %d, want >= 4 (gap change not applied)", fl)
	}
	// Invalid values are ignored, not applied.
	a.SetFlowletGap(0)
	a.SetFlowletGap(-time.Second)
	if got := a.FlowletGap(); got != time.Nanosecond {
		t.Errorf("non-positive gap applied: %v", got)
	}
}

func TestSetRelayIntervalHotReload(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Paths = 1
	cfg.RelayInterval = time.Hour
	e, err := NewEndpoint("127.0.0.1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	takeFeedback := func(now time.Time) bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.takeFeedbackLocked(now).Valid
	}
	markCE(e, 10)
	now := time.Now()
	if !takeFeedback(now) {
		t.Fatal("first relay not due")
	}
	markCE(e, 10)
	// With a 1h relay interval the second relay is rate-limited...
	if takeFeedback(now.Add(time.Second)) {
		t.Fatal("relay not rate-limited")
	}
	// ...until the hot-reload shortens the interval.
	e.SetRelayInterval(time.Millisecond)
	if got := e.RelayInterval(); got != time.Millisecond {
		t.Fatalf("RelayInterval = %v", got)
	}
	if !takeFeedback(now.Add(time.Second)) {
		t.Error("relay still rate-limited after SetRelayInterval")
	}
	e.SetRelayInterval(-1)
	if got := e.RelayInterval(); got != time.Millisecond {
		t.Errorf("negative relay interval applied: %v", got)
	}
}

func TestDrainFlushesPendingEnqueues(t *testing.T) {
	eachIOMode(t, func(t *testing.T, cfg Config) {
		recv, got := newCounting(t, cfg)
		snd, err := NewEndpoint("127.0.0.1", cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer snd.Close()
		if err := snd.Start(fmt.Sprintf("127.0.0.1:%d", recv.Ports()[0])); err != nil {
			t.Fatal(err)
		}
		// Fill rings without flushing: fewer than Batch per path, so
		// nothing is on the wire until Drain flushes.
		const n = 20
		for i := 0; i < n; i++ {
			if err := snd.Enqueue([]byte("pending")); err != nil {
				t.Fatal(err)
			}
		}
		if err := snd.Drain(5 * time.Second); err != nil {
			t.Fatalf("drain: %v", err)
		}
		waitFor(t, 2*time.Second, func() bool { return got.Load() == n }, "drained frames delivered")
		// The endpoint is closed: transmitting now fails.
		if err := snd.Send([]byte("x")); err == nil {
			t.Error("Send succeeded on drained endpoint")
		}
	})
}

func TestDrainReceiveOnly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Paths = 2
	ep, _ := newCounting(t, cfg)
	if err := ep.Drain(2 * time.Second); err != nil {
		t.Fatalf("receive-only drain: %v", err)
	}
}

func TestCloseConcurrentIdempotent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Paths = 2
	a, _ := pairCfg(t, cfg)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.Close(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := a.Close(); err != nil { // and once more after the dust settles
		t.Error(err)
	}
}

func TestWeightsSortedByPort(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Paths = 8
	e, err := NewEndpoint("127.0.0.1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ws := e.WeightsSorted()
	if len(ws) != 8 {
		t.Fatalf("len = %d, want 8", len(ws))
	}
	sum := 0.0
	for i, pw := range ws {
		if i > 0 && ws[i-1].Port >= pw.Port {
			t.Fatalf("weights not sorted by port: %v", ws)
		}
		sum += pw.Weight
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("weights sum to %v, want ~1", sum)
	}
}

// TestKeepaliveCountsOnlyWrittenFeedback: Keepalive counts a relay in
// FeedbackSent only once the datagram carrying it is on the wire, so after
// Close, when every write fails, nothing is counted.
func TestKeepaliveCountsOnlyWrittenFeedback(t *testing.T) {
	eachIOMode(t, func(t *testing.T, cfg Config) {
		a, _ := pairCfg(t, cfg)
		markCE(a, 10)
		a.Keepalive()
		if got := a.Stats().FeedbackSent; got != 1 {
			t.Fatalf("FeedbackSent = %d after a live keepalive, want 1", got)
		}
		markCE(a, 11)
		a.Close()
		a.Keepalive()
		if st := a.Stats(); st.FeedbackSent != 1 || st.SocketErrors == 0 {
			t.Errorf("after Close: FeedbackSent = %d, SocketErrors = %d; want 1 and > 0", st.FeedbackSent, st.SocketErrors)
		}
	})
}

// TestProbeCountersCountOnlyWritten: a probe counts in ProbesSent, and an
// echo in ProbesAnswered, only once the datagram is written. A probe that
// never left keeps no in-flight slot, since no echo can resolve it.
func TestProbeCountersCountOnlyWritten(t *testing.T) {
	eachIOMode(t, func(t *testing.T, cfg Config) {
		// A receive-only endpoint has nowhere to write an echo.
		recv, got := newCounting(t, cfg)
		snd, err := NewEndpoint("127.0.0.1", cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer snd.Close()
		snd.SetOnRecv(func([]byte) {})
		if err := snd.Start(fmt.Sprintf("127.0.0.1:%d", recv.Ports()[0])); err != nil {
			t.Fatal(err)
		}
		snd.ProbePaths()
		// Everything arrives on one socket in order, so once the datagram
		// behind the probes is delivered, the probes have been handled.
		if err := snd.Send([]byte("x")); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 2*time.Second, func() bool { return got.Load() == 1 }, "datagram behind the probes")
		if st := recv.Stats(); st.ProbesAnswered != 0 {
			t.Errorf("receive-only endpoint: ProbesAnswered = %d, want 0", st.ProbesAnswered)
		}
		if st := snd.Stats(); st.ProbesSent != 2 || st.ProbeEchoes != 0 {
			t.Errorf("prober: ProbesSent = %d, ProbeEchoes = %d; want 2 and 0", st.ProbesSent, st.ProbeEchoes)
		}

		// After Close every write fails: nothing counts, nothing stays in flight.
		a, _ := pairCfg(t, cfg)
		a.Close()
		a.ProbePaths()
		st := a.Stats()
		inFlight := probesInFlight(a)
		if st.ProbesSent != 0 || st.SocketErrors == 0 || inFlight != 0 {
			t.Errorf("after Close: ProbesSent = %d, SocketErrors = %d, in flight = %d; want 0, > 0, 0",
				st.ProbesSent, st.SocketErrors, inFlight)
		}
	})
}

// probesInFlight counts the paths whose probe slot awaits an echo.
func probesInFlight(e *Endpoint) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, s := range e.rtts {
		if !s.sentAt.IsZero() {
			n++
		}
	}
	return n
}

// TestProbeStateBoundedByPaths: probing a peer that never echoes keeps at
// most one probe per path in flight, however many rounds go unanswered.
func TestProbeStateBoundedByPaths(t *testing.T) {
	eachIOMode(t, func(t *testing.T, cfg Config) {
		recv, _ := newCounting(t, cfg) // receive-only: it cannot echo
		snd, err := NewEndpoint("127.0.0.1", cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer snd.Close()
		if err := snd.Start(fmt.Sprintf("127.0.0.1:%d", recv.Ports()[0])); err != nil {
			t.Fatal(err)
		}
		const rounds = 50
		for i := 0; i < rounds; i++ {
			snd.ProbePaths()
		}
		if got, want := snd.Stats().ProbesSent, int64(rounds*cfg.Paths); got != want {
			t.Fatalf("ProbesSent = %d, want %d", got, want)
		}
		if n := probesInFlight(snd); n > cfg.Paths {
			t.Errorf("%d probes in flight after %d unanswered rounds, want at most %d", n, rounds, cfg.Paths)
		}
	})
}

// TestProbeEchoOfReplacedSeqIgnored: a later ProbePaths round replaces a
// path's unanswered probe, so an echo of the old seq no longer resolves it;
// the current seq resolves it once.
func TestProbeEchoOfReplacedSeqIgnored(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Paths = 2
	recv, _ := newCounting(t, cfg) // receive-only: no real echo arrives
	a, err := NewEndpoint("127.0.0.1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Start(fmt.Sprintf("127.0.0.1:%d", recv.Ports()[0])); err != nil {
		t.Fatal(err)
	}
	a.ProbePaths()
	a.mu.Lock()
	old := a.rtts[0].seq
	a.mu.Unlock()
	a.ProbePaths()
	a.mu.Lock()
	cur := a.rtts[0].seq
	a.mu.Unlock()

	echo := func(seq uint32) {
		b := make([]byte, headerLen)
		encodeFrame(b, recv.Ports()[0], seq, wire.Feedback{Valid: true, Port: a.ports[0]}, nil, shimFlagProbeEcho)
		a.handleFrame(a.shards[0], b)
	}
	echo(old)
	if got := a.Stats().ProbeEchoes; got != 0 {
		t.Fatalf("echo of replaced seq %d counted: ProbeEchoes = %d, want 0", old, got)
	}
	echo(cur)
	echo(cur)
	if got := a.Stats().ProbeEchoes; got != 1 {
		t.Errorf("ProbeEchoes = %d after two echoes of current seq %d, want 1", got, cur)
	}
	if r := a.PathRTTs(); r[0].Samples != 1 || r[1].Samples != 0 {
		t.Errorf("PathRTTs = %+v, want one sample on path 0 only", r)
	}
}
