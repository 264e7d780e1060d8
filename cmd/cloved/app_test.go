package main

// Lifecycle battery for the operated cloved service: SIGTERM-driven drain
// under load with zero payload loss, /healthz→/readyz ordering, hot-reload
// mid-transfer with clean error counters, oversized-stdin-line reporting
// (the old loop exited silently), multi-tenant serving, double-stop
// idempotence, reverse-order tenant drain, and the release of everything
// started before a tenant that fails to start. Tests drive run() in process
// with injected stdin/stdout and real signals, or assemble the app directly
// for admin-plane checks.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"clove/internal/datapath"
)

// lockedBuf is a bytes.Buffer safe to read while run() is still writing.
type lockedBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool, what string) {
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

// newReceiver starts a bare receive-only datapath endpoint counting payload
// deliveries, and returns it with its first path address as a dial target.
func newReceiver(t *testing.T, paths int) (*datapath.Endpoint, *atomic.Int64, string) {
	t.Helper()
	cfg := datapath.DefaultConfig()
	cfg.Paths = paths
	ep, err := datapath.NewEndpoint("127.0.0.1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	var got atomic.Int64
	ep.SetOnRecv(func([]byte) { got.Add(1) })
	if err := ep.Start(""); err != nil {
		t.Fatal(err)
	}
	return ep, &got, fmt.Sprintf("127.0.0.1:%d", ep.Ports()[0])
}

// guardSIGTERM registers a test-side handler so a SIGTERM aimed at run()
// cannot kill the test process in the window before run() installs its own.
func guardSIGTERM(t *testing.T) {
	t.Helper()
	ch := make(chan os.Signal, 4)
	signal.Notify(ch, syscall.SIGTERM)
	t.Cleanup(func() { signal.Stop(ch) })
}

var finalSentRE = regexp.MustCompile(`-- final (?:\[[^\]]*\] )?sent=(\d+)`)

// TestSIGTERMDrainUnderLoad drives run() with a live stdin feed, SIGTERMs
// the process mid-stream, and asserts a clean exit with zero payload loss:
// every line the service accepted before the drain began is delivered.
func TestSIGTERMDrainUnderLoad(t *testing.T) {
	guardSIGTERM(t)
	_, got, raddr := newReceiver(t, 2)

	pr, pw := io.Pipe()
	out, errOut := &lockedBuf{}, &lockedBuf{}
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-remote", raddr, "-paths", "2",
			"-stats", "0", "-keepalive", "2ms",
		}, pr, out, errOut)
	}()
	// Feed lines until the pipe is torn down after shutdown. Lightly paced:
	// the zero-loss contract under test is the drain (no accepted frame is
	// dropped by shutdown), not UDP backpressure under an unbounded burst.
	go func() {
		for i := 0; ; i++ {
			if _, err := fmt.Fprintf(pw, "payload-%d\n", i); err != nil {
				return
			}
			time.Sleep(20 * time.Microsecond)
		}
	}()

	waitUntil(t, 5*time.Second, func() bool { return got.Load() >= 200 }, "load in flight")
	syscall.Kill(os.Getpid(), syscall.SIGTERM)

	var code int
	select {
	case code = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after SIGTERM")
	}
	pr.CloseWithError(io.ErrClosedPipe) // release the feeder
	pw.Close()

	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "received terminated, draining") {
		t.Errorf("missing drain banner in output:\n%s", out.String())
	}
	m := finalSentRE.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no final stats line in output:\n%s", out.String())
	}
	var sent int64
	fmt.Sscanf(m[1], "%d", &sent)
	if sent < 200 {
		t.Fatalf("final sent = %d, want >= 200 (load was in flight)", sent)
	}
	// Zero loss: everything the sender accepted arrives once the in-flight
	// tail lands. The drain flushed the tx rings before closing.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && got.Load() < sent {
		time.Sleep(2 * time.Millisecond)
	}
	if got.Load() != sent {
		t.Errorf("delivered %d payloads, sender counted %d (lost %d across drain)",
			got.Load(), sent, sent-got.Load())
	}
}

// startApp assembles and starts an app directly (no flag parsing, no
// signals) for admin-plane tests, returning it with its admin base URL.
func startApp(t *testing.T, cfg appConfig, stdin io.Reader) (*app, *lockedBuf, string) {
	t.Helper()
	if cfg.drainTimeout == 0 {
		cfg.drainTimeout = 2 * time.Second
	}
	for i := range cfg.tenants {
		applyTenantDefaults(&cfg.tenants[i])
	}
	if stdin == nil {
		stdin = strings.NewReader("")
	}
	out := &lockedBuf{}
	a, err := newApp(cfg, stdin, out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.stop() })
	base := ""
	if a.admin != nil {
		base = "http://" + a.admin.Addr()
	}
	return a, out, base
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func httpPost(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// TestHealthzReadyzOrdering: liveness is up from Start, readiness is gated
// on the tunnel having a remote — a receive-only tenant reports 503 until a
// /config retarget installs one.
func TestHealthzReadyzOrdering(t *testing.T) {
	_, _, raddr := newReceiver(t, 2)
	_, _, base := startApp(t, appConfig{
		tenants:   []TenantSpec{{Name: "default", Paths: 2}}, // no remote
		adminAddr: "127.0.0.1:0",
	}, nil)

	if code, _ := httpGet(t, base+"/healthz"); code != 200 {
		t.Fatalf("/healthz = %d, want 200", code)
	}
	code, body := httpGet(t, base+"/readyz")
	if code != 503 || !strings.Contains(body, "no remote") {
		t.Fatalf("/readyz before retarget = %d %q, want 503 'no remote'", code, body)
	}
	if code, _ := httpPost(t, base+"/config", fmt.Sprintf(`{"remote":%q}`, raddr)); code != 200 {
		t.Fatalf("/config retarget = %d, want 200", code)
	}
	if code, _ = httpGet(t, base+"/readyz"); code != 200 {
		t.Fatalf("/readyz after retarget = %d, want 200", code)
	}
	// /config is POST-only.
	if code, _ := httpGet(t, base+"/config"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /config = %d, want 405", code)
	}
}

// TestHotReloadFlowletGapMidTransfer reloads the flowlet gap and relay
// interval through /config while payloads are streaming, and asserts full
// delivery with zero socket and decode errors on both sides.
func TestHotReloadFlowletGapMidTransfer(t *testing.T) {
	recv, got, raddr := newReceiver(t, 2)
	a, _, base := startApp(t, appConfig{
		tenants:   []TenantSpec{{Name: "default", Paths: 2, Remote: raddr}},
		adminAddr: "127.0.0.1:0",
		keepalive: 2 * time.Millisecond,
	}, nil)
	ep := a.tenants[0].endpoint()

	const total = 500
	stop := make(chan struct{})
	var sendErrs atomic.Int64
	go func() {
		defer close(stop)
		for i := 0; i < total; i++ {
			if err := ep.Send([]byte(fmt.Sprintf("line-%d", i))); err != nil {
				sendErrs.Add(1)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	waitUntil(t, 5*time.Second, func() bool { return got.Load() >= total/4 }, "transfer underway")
	code, body := httpPost(t, base+"/config", `{"flowlet_gap":"5ms","relay_interval":"1ms"}`)
	if code != 200 {
		t.Fatalf("/config = %d: %s", code, body)
	}
	if gap := ep.FlowletGap(); gap != 5*time.Millisecond {
		t.Fatalf("FlowletGap after reload = %v, want 5ms", gap)
	}
	if ri := ep.RelayInterval(); ri != time.Millisecond {
		t.Fatalf("RelayInterval after reload = %v, want 1ms", ri)
	}

	<-stop
	waitUntil(t, 5*time.Second, func() bool { return got.Load() == total }, "full delivery across reload")
	if n := sendErrs.Load(); n != 0 {
		t.Errorf("send errors during reload: %d", n)
	}
	for side, st := range map[string]datapath.Stats{"sender": ep.Stats(), "receiver": recv.Stats()} {
		if st.SocketErrors != 0 || st.DecodeErrors != 0 {
			t.Errorf("%s errors across reload: sock=%d decode=%d", side, st.SocketErrors, st.DecodeErrors)
		}
	}
}

// TestStdinOversizedLineReported: a line over the 65535-byte payload bound
// used to end the read loop silently with exit 0; now the scanner error is
// reported and the exit code is nonzero.
func TestStdinOversizedLineReported(t *testing.T) {
	_, _, raddr := newReceiver(t, 1)
	in := strings.NewReader(strings.Repeat("a", datapath.MaxPayload+1) + "\n")
	out, errOut := &lockedBuf{}, &lockedBuf{}
	code := run([]string{"-remote", raddr, "-paths", "1", "-stats", "0", "-keepalive", "0"}, in, out, errOut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "token too long") {
		t.Errorf("scanner error not reported, stderr:\n%s", errOut.String())
	}
}

// TestStdinLargeLineDelivered: a line past bufio's 64 KiB default but under
// the payload bound is accepted and delivered (the old scanner dropped it).
func TestStdinLargeLineDelivered(t *testing.T) {
	_, got, raddr := newReceiver(t, 1)
	line := strings.Repeat("b", 65100) // > 64 KiB, + header still under the 65507 UDP max
	in := strings.NewReader(line + "\n")
	out, errOut := &lockedBuf{}, &lockedBuf{}
	code := run([]string{"-remote", raddr, "-paths", "1", "-stats", "0", "-keepalive", "0"}, in, out, errOut)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr:\n%s", code, errOut.String())
	}
	waitUntil(t, 2*time.Second, func() bool { return got.Load() == 1 }, "large line delivery")
}

// TestNonPositiveDrainTimeoutRejected: a drain needs a deadline, so
// -drain-timeout 0 (or less) is a usage error, not an unbounded drain.
func TestNonPositiveDrainTimeoutRejected(t *testing.T) {
	for _, v := range []string{"0", "-1s"} {
		out, errOut := &lockedBuf{}, &lockedBuf{}
		code := run([]string{"-drain-timeout", v, "-stats", "0", "-keepalive", "0"},
			strings.NewReader(""), out, errOut)
		if code != 2 {
			t.Errorf("-drain-timeout %s: exit code = %d, want 2", v, code)
		}
		if !strings.Contains(errOut.String(), "cloved: -drain-timeout must be positive") {
			t.Errorf("-drain-timeout %s: stderr = %q", v, errOut.String())
		}
	}
}

// TestMultiTenantServing maps two overlays onto one process: /stats lists
// both, /config addresses one by name, and delivery between the two tenants
// carries the tenant label on stdout.
func TestMultiTenantServing(t *testing.T) {
	a, out, base := startApp(t, appConfig{
		tenants: []TenantSpec{
			{Name: "blue", Paths: 2},
			{Name: "green", Paths: 2},
		},
		adminAddr: "127.0.0.1:0",
	}, nil)

	code, body := httpGet(t, base+"/stats")
	if code != 200 {
		t.Fatalf("/stats = %d", code)
	}
	var stats struct {
		Tenants []struct {
			Name  string   `json:"name"`
			Ports []uint16 `json:"ports"`
			Ready bool     `json:"ready"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("bad /stats JSON: %v\n%s", err, body)
	}
	if len(stats.Tenants) != 2 || stats.Tenants[0].Name != "blue" || stats.Tenants[1].Name != "green" {
		t.Fatalf("unexpected tenants in /stats: %s", body)
	}

	// Point blue at green by name and send through the tunnel.
	greenPort := stats.Tenants[1].Ports[0]
	code, body = httpPost(t, base+"/config",
		fmt.Sprintf(`{"tenant":"blue","remote":"127.0.0.1:%d"}`, greenPort))
	if code != 200 {
		t.Fatalf("/config tenant=blue = %d: %s", code, body)
	}
	if err := a.tenantNamed("blue").endpoint().Send([]byte("cross-tenant")); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, func() bool {
		return strings.Contains(out.String(), "<- [green] cross-tenant")
	}, "labelled delivery on the green tenant")
	// green never got a remote: readiness still names it.
	code, body = httpGet(t, base+"/readyz")
	if code != 503 || !strings.Contains(body, `"green"`) {
		t.Errorf("/readyz = %d %q, want 503 naming green", code, body)
	}
	// Unknown tenant is a 404, not a silent default.
	if code, _ := httpPost(t, base+"/config", `{"tenant":"red","flowlet_gap":"1ms"}`); code != 404 {
		t.Errorf("/config unknown tenant = %d, want 404", code)
	}
}

// TestTenantsFileEndToEnd drives run() with a -tenants file: both overlays
// come up, stdin EOF keeps the service alive (operated mode), and SIGTERM
// drains every tenant with a labelled final stats line each.
func TestTenantsFileEndToEnd(t *testing.T) {
	guardSIGTERM(t)
	dir := t.TempDir()
	spec := dir + "/tenants.json"
	if err := os.WriteFile(spec, []byte(`{"tenants":[
		{"name":"blue","paths":2},
		{"name":"green","paths":2,"flowlet_gap":"1ms"}
	]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	out, errOut := &lockedBuf{}, &lockedBuf{}
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-tenants", spec, "-admin", "127.0.0.1:0",
			"-stats", "0", "-keepalive", "0",
		}, strings.NewReader(""), out, errOut)
	}()

	adminRE := regexp.MustCompile(`admin: (http://\S+)`)
	var base string
	waitUntil(t, 5*time.Second, func() bool {
		m := adminRE.FindStringSubmatch(out.String())
		if m == nil {
			return false
		}
		base = m[1]
		return true
	}, "admin plane up")
	waitUntil(t, 5*time.Second, func() bool {
		return strings.Contains(out.String(), "stdin closed; serving until signalled")
	}, "operated mode after EOF")

	if code, body := httpGet(t, base+"/stats"); code != 200 || !strings.Contains(body, `"green"`) {
		t.Fatalf("/stats = %d: %s", code, body)
	}
	syscall.Kill(os.Getpid(), syscall.SIGTERM)
	var code int
	select {
	case code = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after SIGTERM")
	}
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr:\n%s", code, errOut.String())
	}
	for _, name := range []string{"blue", "green"} {
		if !strings.Contains(out.String(), "-- final ["+name+"] ") {
			t.Errorf("missing final stats line for %s:\n%s", name, out.String())
		}
	}
}

// TestDoubleStopIdempotent: stopping the app twice drains once — one final
// stats line, same (nil) result both times.
func TestDoubleStopIdempotent(t *testing.T) {
	_, _, raddr := newReceiver(t, 2)
	a, out, _ := startApp(t, appConfig{
		tenants: []TenantSpec{{Name: "default", Paths: 2, Remote: raddr}},
	}, nil)
	if err := a.stop(); err != nil {
		t.Fatalf("first Stop: %v", err)
	}
	if err := a.stop(); err != nil {
		t.Fatalf("second Stop: %v", err)
	}
	if n := strings.Count(out.String(), "-- final "); n != 1 {
		t.Errorf("final stats line printed %d times, want 1:\n%s", n, out.String())
	}
}

// TestDoubleStopKeepsFirstError: a tenant whose drain fails does not stop
// the others from draining, and a second stop drains nothing again and
// returns the first stop's error. red's drain is made to fail by leaving a
// datagram in its tx ring and closing its sockets underneath it.
func TestDoubleStopKeepsFirstError(t *testing.T) {
	_, _, raddr := newReceiver(t, 1)
	a, out, _ := startApp(t, appConfig{
		tenants: []TenantSpec{
			{Name: "blue", Paths: 1, Remote: raddr},
			{Name: "red", Paths: 1, Remote: raddr},
		},
	}, nil)
	red := a.tenantNamed("red").endpoint()
	if err := red.Enqueue([]byte("stranded")); err != nil {
		t.Fatal(err)
	}
	red.Close()

	err1 := a.stop()
	if err1 == nil || !strings.Contains(err1.Error(), `tenant "red"`) {
		t.Fatalf("first stop = %v, want red's drain error", err1)
	}
	err2 := a.stop()
	if err2 == nil || err2.Error() != err1.Error() {
		t.Errorf("second stop = %v, want the first stop's %v", err2, err1)
	}
	for _, name := range []string{"red", "blue"} {
		if n := strings.Count(out.String(), "-- final ["+name+"] "); n != 1 {
			t.Errorf("%s drained %d times, want 1:\n%s", name, n, out.String())
		}
	}
}

// TestEveryTicksAndStops: every ticks until stopped, stop waits for the
// tick in flight, and no tick runs after stop returns.
func TestEveryTicksAndStops(t *testing.T) {
	var ticks, inTick atomic.Int64
	stop := every(time.Millisecond, func() {
		inTick.Add(1)
		time.Sleep(5 * time.Millisecond)
		ticks.Add(1)
		inTick.Add(-1)
	})
	waitUntil(t, 2*time.Second, func() bool { return inTick.Load() == 1 }, "a tick in flight")
	stop()
	if inTick.Load() != 0 {
		t.Fatal("stop returned while a tick was still running")
	}
	n := ticks.Load()
	time.Sleep(20 * time.Millisecond)
	if m := ticks.Load(); m != n || n == 0 {
		t.Errorf("ticks = %d at stop, %d after; want the same nonzero count", n, m)
	}
}

// TestTenantsDrainInReverseOrder: tenants come up in spec order and drain
// from the last one back to the first.
func TestTenantsDrainInReverseOrder(t *testing.T) {
	a, out, _ := startApp(t, appConfig{
		tenants: []TenantSpec{
			{Name: "blue", Paths: 1},
			{Name: "green", Paths: 1},
			{Name: "red", Paths: 1},
		},
	}, nil)
	if err := a.stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	finals := regexp.MustCompile(`-- final \[(\w+)\]`).FindAllStringSubmatch(out.String(), -1)
	var order []string
	for _, m := range finals {
		order = append(order, m[1])
	}
	if got := strings.Join(order, " "); got != "red green blue" {
		t.Errorf("drain order = %q, want %q\n%s", got, "red green blue", out.String())
	}
}

// TestStartFailureReleasesStartedTenants: when a tenant cannot bind, run
// exits 1 naming it, and everything brought up before it is released — the
// admin port closes, the earlier tenant's sockets are free again, and that
// tenant still printed its final stats line.
func TestStartFailureReleasesStartedTenants(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	adminAddr := ln.Addr().String()
	ln.Close()

	spec := t.TempDir() + "/tenants.json"
	if err := os.WriteFile(spec, []byte(`{"tenants":[
		{"name":"blue","paths":2},
		{"name":"green","paths":2,"listen":"192.0.2.1"}
	]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, errOut := &lockedBuf{}, &lockedBuf{}
	code := run([]string{
		"-tenants", spec, "-admin", adminAddr, "-stats", "0", "-keepalive", "0",
	}, strings.NewReader(""), out, errOut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(errOut.String(), `tenant "green"`) {
		t.Errorf("stderr does not name the failing tenant:\n%s", errOut.String())
	}
	if c, err := net.DialTimeout("tcp", adminAddr, time.Second); err == nil {
		c.Close()
		t.Errorf("admin plane still accepting on %s after start failure", adminAddr)
	}
	m := regexp.MustCompile(`paths\[blue\]: \[([\d ]+)\]`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no paths banner for blue:\n%s", out.String())
	}
	for _, p := range strings.Fields(m[1]) {
		c, err := net.ListenPacket("udp", "127.0.0.1:"+p)
		if err != nil {
			t.Errorf("blue's port %s still bound after start failure: %v", p, err)
			continue
		}
		c.Close()
	}
	if !strings.Contains(out.String(), "-- final [blue] ") {
		t.Errorf("blue was not drained (no final stats line):\n%s", out.String())
	}
}
