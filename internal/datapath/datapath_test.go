package datapath

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// pair creates two endpoints tunnelling directly to each other (no
// emulator): a's traffic targets b's path-0 port and vice versa.
func pair(t *testing.T, cfg Config) (*Endpoint, *Endpoint) {
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

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestEndpointDelivery(t *testing.T) {
	a, b := pair(t, DefaultConfig())
	var got atomic.Int64
	var mu sync.Mutex
	var last []byte
	b.SetOnRecv(func(p []byte) {
		// p aliases a shard receive buffer: copy to retain.
		mu.Lock()
		last = append(last[:0], p...)
		mu.Unlock()
		got.Add(1)
	})
	msg := []byte("hello through the overlay")
	for i := 0; i < 10; i++ {
		if err := a.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool { return got.Load() == 10 }, "delivery")
	mu.Lock()
	defer mu.Unlock()
	if string(last) != string(msg) {
		t.Errorf("payload corrupted: %q", last)
	}
	if a.Stats().Sent != 10 {
		t.Errorf("sent = %d", a.Stats().Sent)
	}
}

func TestEndpointFlowletSplitting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FlowletGap = time.Millisecond
	a, b := pair(t, cfg)
	b.SetOnRecv(func([]byte) {})
	// Two bursts separated by > gap: at least 2 flowlets.
	for i := 0; i < 5; i++ {
		a.Send([]byte("x"))
	}
	time.Sleep(5 * time.Millisecond)
	for i := 0; i < 5; i++ {
		a.Send([]byte("x"))
	}
	if fl := a.Stats().Flowlets; fl < 2 {
		t.Errorf("flowlets = %d, want >= 2", fl)
	}
}

func TestEndpointRejectsZeroPaths(t *testing.T) {
	if _, err := NewEndpoint("127.0.0.1", Config{Paths: 0}); err == nil {
		t.Error("zero-path endpoint created")
	}
}

// throughEmulator connects a sender, whose forward traffic crosses a
// PathEmulator shaped by profiles, to a receiver, whose reverse keepalives
// carry the feedback straight back. The emulator gives the sender's ports
// profiles in order of first use, and before any feedback the sender's
// round-robin uses them in port-table order, so profile i shapes
// snd.Ports()[i]. Both sides send until stop is called.
func throughEmulator(t *testing.T, cfg Config, profiles []PathProfile) (snd, recv *Endpoint, stop func()) {
	t.Helper()
	// Receiver first (emulator needs its address).
	recv, err := NewEndpoint("127.0.0.1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recv.Close() })
	emu, err := NewPathEmulator("127.0.0.1", fmt.Sprintf("127.0.0.1:%d", recv.Ports()[0]), profiles)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { emu.Close() })
	snd, err = NewEndpoint("127.0.0.1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { snd.Close() })
	if err := snd.Start(emu.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := recv.Start(fmt.Sprintf("127.0.0.1:%d", snd.Ports()[0])); err != nil {
		t.Fatal(err)
	}
	recv.SetOnRecv(func([]byte) {})
	snd.SetOnRecv(func([]byte) {})

	payload := make([]byte, 1200)
	done := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(step func(), pause time.Duration) {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				step()
				time.Sleep(pause)
			}
		}
	}
	wg.Add(2)
	go loop(func() { snd.Send(payload) }, 50*time.Microsecond) // forward traffic
	go loop(recv.Keepalive, 100*time.Microsecond)              // reverse keepalives carry the feedback
	var once sync.Once
	stop = func() { once.Do(func() { close(done); wg.Wait() }) }
	t.Cleanup(stop)
	return snd, recv, stop
}

func TestFeedbackShiftsWeightsThroughEmulator(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Paths = 2
	cfg.FlowletGap = 200 * time.Microsecond
	cfg.RelayInterval = 100 * time.Microsecond
	// One clean path and one that marks CE aggressively.
	snd, recv, stop := throughEmulator(t, cfg, []PathProfile{
		{},                                // path for the first-seen sender port: clean
		{ECNDepth: 1, RateBps: 5_000_000}, // second port: slow and marking
	})

	// Wait for the first relay only: each feedback shifts weight off the
	// marked path, and on a slow machine the reduced share can stop
	// exceeding the 5 Mbps path's queue — CE (correctly) stops recurring,
	// so demanding several relays races the adaptive equilibrium. The
	// weight-spread assertion below is what proves the shift happened.
	waitFor(t, 5*time.Second, func() bool {
		return snd.Stats().FeedbackReceived >= 1
	}, "feedback arrival at sender")
	stop()

	if recv.Stats().CEObserved == 0 {
		t.Fatal("receiver observed no CE marks")
	}
	w := snd.WeightsSorted()
	var minW, maxW = 1.0, 0.0
	for _, pw := range w {
		minW = min(minW, pw.Weight)
		maxW = max(maxW, pw.Weight)
	}
	if maxW-minW < 0.05 {
		t.Errorf("weights did not shift away from the marked path: %v", w)
	}
}

// TestFeedbackFromTwoMarkingPaths: with two of three emulated paths
// marking, the receiver's relay record must carry both paths' marks back,
// so the sender moves weight off each of them onto the clean path.
func TestFeedbackFromTwoMarkingPaths(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Paths = 3
	cfg.FlowletGap = 20 * time.Microsecond // below the send pause: one flowlet per datagram
	cfg.RelayInterval = 100 * time.Microsecond
	// 19 ms to serialize one datagram: even a slow, loaded sender queues
	// and gets marked on both paths.
	marking := PathProfile{ECNDepth: 1, RateBps: 500_000}
	snd, recv, stop := throughEmulator(t, cfg, []PathProfile{{}, marking, marking})
	ports := snd.Ports()
	weight := func(port uint16) float64 {
		for _, pw := range snd.WeightsSorted() {
			if pw.Port == port {
				return pw.Weight
			}
		}
		t.Fatalf("port %d not in the weight table", port)
		return 0
	}
	waitFor(t, 5*time.Second, func() bool {
		clean := weight(ports[0])
		return weight(ports[1]) < clean && weight(ports[2]) < clean
	}, "both marked paths below the clean path's weight")
	stop()

	if got := snd.Stats().FeedbackReceived; got < 2 {
		t.Errorf("FeedbackReceived = %d, want >= 2", got)
	}
	if a, b := snd.Stats().DecodeErrors, recv.Stats().DecodeErrors; a != 0 || b != 0 {
		t.Errorf("DecodeErrors = %d at the sender, %d at the receiver; want 0", a, b)
	}
}

func TestEmulatorPreservesPayload(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Paths = 2
	recv, err := NewEndpoint("127.0.0.1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	emu, err := NewPathEmulator("127.0.0.1",
		fmt.Sprintf("127.0.0.1:%d", recv.Ports()[0]),
		[]PathProfile{{Delay: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer emu.Close()
	snd, err := NewEndpoint("127.0.0.1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()
	if err := snd.Start(emu.Addr()); err != nil {
		t.Fatal(err)
	}

	var got atomic.Int64
	recv.SetOnRecv(func(p []byte) {
		if len(p) == 999 {
			got.Add(1)
		}
	})
	if err := recv.Start(fmt.Sprintf("127.0.0.1:%d", snd.Ports()[0])); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		snd.Send(make([]byte, 999))
	}
	waitFor(t, 2*time.Second, func() bool { return got.Load() == 5 }, "emulated delivery")
}

func TestEndpointDecodeErrorCounted(t *testing.T) {
	a, _ := pair(t, DefaultConfig())
	a.handleFrame(a.shards[0], []byte{1, 2, 3})
	if a.Stats().DecodeErrors != 1 {
		t.Error("decode error not counted")
	}
}

func TestProbePathsMeasuresRTT(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Paths = 2
	recv, err := NewEndpoint("127.0.0.1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	// Path for the 2nd-seen port is slow (5ms added delay).
	emu, err := NewPathEmulator("127.0.0.1",
		fmt.Sprintf("127.0.0.1:%d", recv.Ports()[0]),
		[]PathProfile{
			{Delay: 100 * time.Microsecond},
			{Delay: 5 * time.Millisecond},
		})
	if err != nil {
		t.Fatal(err)
	}
	defer emu.Close()
	snd, err := NewEndpoint("127.0.0.1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()
	if err := snd.Start(emu.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := recv.Start(fmt.Sprintf("127.0.0.1:%d", snd.Ports()[0])); err != nil {
		t.Fatal(err)
	}
	recv.SetOnRecv(func([]byte) {})
	snd.SetOnRecv(func([]byte) {})

	// Probe in rounds and keep each path's minimum RTT: a scheduling stall
	// only inflates a sample, so the minimum is the path's own delay. The
	// first round also assigns the profiles (by first appearance).
	const rounds = 8
	minRTT := map[uint16]time.Duration{}
	for i := 0; i < rounds; i++ {
		before := snd.Stats().ProbeEchoes
		snd.ProbePaths()
		waitFor(t, 5*time.Second, func() bool { return snd.Stats().ProbeEchoes >= before+2 }, "probe echoes")
		for _, r := range snd.PathRTTs() {
			if m, ok := minRTT[r.Port]; !ok || r.RTT < m {
				minRTT[r.Port] = r.RTT
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(minRTT) != 2 {
		t.Fatalf("rtts = %v", minRTT)
	}
	var fast, slow time.Duration
	for _, rtt := range minRTT {
		if fast == 0 || rtt < fast {
			fast = rtt
		}
		if rtt > slow {
			slow = rtt
		}
	}
	if slow < 5*time.Millisecond || slow < fast+2*time.Millisecond {
		t.Errorf("slow path min RTT %v not clearly above fast %v (want >= 5ms and >= fast + 2ms)", slow, fast)
	}
	if recv.Stats().ProbesAnswered == 0 {
		t.Error("receiver answered no probes")
	}
	// Probes measure; they do not steer. A 5 ms path keeps its share.
	for _, pw := range snd.WeightsSorted() {
		if math.Abs(pw.Weight-0.5) > 1e-9 {
			t.Errorf("probing moved the weights: %v", snd.WeightsSorted())
			break
		}
	}
}
