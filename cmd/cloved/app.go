package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clove/internal/datapath"
)

// appConfig is the resolved flag/file configuration for one cloved process.
type appConfig struct {
	tenants      []TenantSpec
	adminAddr    string // empty = no admin plane
	keepalive    time.Duration
	statsEvery   time.Duration
	drainTimeout time.Duration

	// serveAfterEOF keeps the process serving (receive + admin) after stdin
	// closes instead of exiting — set when an admin plane or a tenants file
	// makes this an operated service rather than a pipe filter.
	serveAfterEOF bool
}

// app is one cloved process: the optional admin plane, its tenants, the
// keepalive and stats tickers, and the stdin reader. start brings them up
// in that order; stop takes them down in the reverse one, so input stops
// first, tickers die, tenants drain, and the admin plane — observable
// throughout the drain — goes last.
type app struct {
	cfg     appConfig
	tenants []*tenant
	admin   *adminServer // nil without -admin

	stdin  io.Reader
	stdout io.Writer
	stderr io.Writer

	// tickers holds each running ticker's stop func, in start order.
	tickers []func()
	// inputDone receives the scanner's terminal error (nil on clean EOF)
	// exactly once.
	inputDone chan error
	draining  atomic.Bool

	stopOnce sync.Once
	stopErr  error
}

func newApp(cfg appConfig, stdin io.Reader, stdout, stderr io.Writer) (*app, error) {
	if len(cfg.tenants) == 0 {
		return nil, fmt.Errorf("cloved: no tenants configured")
	}
	a := &app{
		cfg:       cfg,
		stdin:     stdin,
		stdout:    stdout,
		stderr:    stderr,
		inputDone: make(chan error, 1),
	}
	if cfg.adminAddr != "" {
		a.admin = newAdminServer(a, cfg.adminAddr)
	}
	for _, spec := range cfg.tenants {
		a.tenants = append(a.tenants, &tenant{app: a, spec: spec})
	}
	return a, nil
}

// start brings the service up: the admin plane listens first, so liveness
// is observable during (and readiness reflects) tenant bring-up; then each
// tenant in order, the tickers, and the stdin reader. If a tenant fails to
// start, stop releases what came up before it: the started tenants drain
// in reverse order and the admin plane shuts down.
func (a *app) start() error {
	if a.admin != nil {
		if err := a.admin.start(); err != nil {
			return err
		}
	}
	for _, t := range a.tenants {
		if err := t.start(); err != nil {
			return errors.Join(err, a.stop())
		}
	}
	if a.cfg.keepalive > 0 {
		for _, t := range a.tenants {
			ep := t.endpoint()
			a.tickers = append(a.tickers, every(a.cfg.keepalive, func() {
				ep.Keepalive()
				ep.ProbePaths()
			}))
		}
	}
	if a.cfg.statsEvery > 0 {
		a.tickers = append(a.tickers, every(a.cfg.statsEvery, a.printStats))
	}
	go a.readStdin()
	return nil
}

// stop drains the service in the reverse of start's order and returns
// every step's error joined, so one failing tenant never hides another or
// skips the rest. Each step bounds itself: a tenant's drain by
// -drain-timeout, the admin shutdown by its own deadline. Idempotent: later
// calls return the first call's result.
func (a *app) stop() error {
	a.stopOnce.Do(func() {
		a.draining.Store(true)
		for i := len(a.tickers) - 1; i >= 0; i-- {
			a.tickers[i]()
		}
		var errs []error
		for i := len(a.tenants) - 1; i >= 0; i-- {
			errs = append(errs, a.tenants[i].stop())
		}
		if a.admin != nil {
			errs = append(errs, a.admin.stop())
		}
		a.stopErr = errors.Join(errs...)
	})
	return a.stopErr
}

// every runs fn every interval on its own goroutine until the returned stop
// is called. stop waits for an in-flight fn, so a tick never races the
// teardown of what it touches. A tick that outlasts interval delays later
// ticks (time.Ticker semantics).
func every(interval time.Duration, fn func()) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tk := time.NewTicker(interval)
		defer tk.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tk.C:
				fn()
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// tenantNamed returns the tenant with the given name, or the first tenant
// when name is empty.
func (a *app) tenantNamed(name string) *tenant {
	if name == "" {
		return a.tenants[0]
	}
	for _, t := range a.tenants {
		if t.spec.Name == name {
			return t
		}
	}
	return nil
}

// printStats emits one stats line (plus RTT detail) per tenant.
func (a *app) printStats() {
	for _, t := range a.tenants {
		fmt.Fprintf(a.stdout, "-- %s%s\n", t.label(), t.statsLine())
		for _, r := range t.endpoint().PathRTTs() {
			if r.Samples > 0 {
				fmt.Fprintf(a.stdout, "   path %d: rtt=%v (%d samples, %v old)\n",
					r.Port, r.RTT, r.Samples, r.Age.Round(time.Millisecond))
			}
		}
	}
}

// readStdin feeds stdin lines into the first tenant's tunnel. Its scanner
// accepts tokens up to the datapath's 65535-byte payload bound (the 64 KiB
// bufio default silently ended the old read loop), and the terminal scanner
// error is reported through inputDone instead of being dropped. stop sets
// draining so shutdown stops accepting input immediately; the blocked read
// itself is released when the process exits or the input closes.
func (a *app) readStdin() {
	ep := a.tenants[0].endpoint()
	sc := bufio.NewScanner(a.stdin)
	sc.Buffer(make([]byte, 0, 16*1024), datapath.MaxPayload)
	for sc.Scan() {
		if a.draining.Load() {
			break
		}
		if err := ep.Send(sc.Bytes()); err != nil {
			fmt.Fprintln(a.stderr, "cloved: send:", err)
		}
	}
	a.inputDone <- sc.Err()
}

// tenant owns one overlay's endpoint. start acquires everything (sockets,
// read loops); stop drains: flush the tx rings, close within the drain
// deadline, and emit a final stats line. Everything else about the tunnel —
// its remote, whether it is ready — is read from the endpoint itself.
type tenant struct {
	app  *app
	spec TenantSpec

	// ep is nil until start succeeds; the admin plane, up before any
	// tenant, may read it concurrently.
	ep atomic.Pointer[datapath.Endpoint]
}

func (t *tenant) endpoint() *datapath.Endpoint { return t.ep.Load() }

// label prefixes multi-tenant output with the tenant name; the single-tenant
// stats line keeps the historical bare format.
func (t *tenant) label() string {
	if len(t.app.tenants) == 1 {
		return ""
	}
	return "[" + t.spec.Name + "] "
}

func (t *tenant) start() error {
	cfg := datapath.DefaultConfig()
	cfg.Paths = t.spec.Paths
	cfg.FlowletGap = time.Duration(t.spec.FlowletGap)
	cfg.RelayInterval = time.Duration(t.spec.RelayInterval)

	ep, err := datapath.NewEndpoint(t.spec.Listen, cfg)
	if err != nil {
		return fmt.Errorf("tenant %q: %w", t.spec.Name, err)
	}
	label := t.label()
	out := t.app.stdout
	ep.SetOnRecv(func(p []byte) { fmt.Fprintf(out, "<- %s%s\n", label, p) })
	if err := ep.Start(t.spec.Remote); err != nil {
		ep.Close()
		return fmt.Errorf("tenant %q: %w", t.spec.Name, err)
	}
	t.ep.Store(ep)
	fmt.Fprintf(out, "paths%s: %v (batched syscalls: %v)\n",
		nameSuffix(label), ep.Ports(),
		datapath.BatchSyscallsSupported())
	if t.spec.Remote == "" {
		fmt.Fprintf(out, "%sno remote; receive-only until a /config retarget\n", label)
	}
	return nil
}

// nameSuffix turns "[blue] " into "[blue]" for the paths banner.
func nameSuffix(label string) string { return strings.TrimSuffix(label, " ") }

// stop drains the tenant: flush pending tx rings, close within the drain
// deadline, then print the final stats line so the last words of a tenant
// are its delivery counts. A tenant that never started has nothing to drain.
func (t *tenant) stop() error {
	ep := t.endpoint()
	if ep == nil {
		return nil
	}
	err := ep.Drain(t.app.cfg.drainTimeout)
	fmt.Fprintf(t.app.stdout, "-- final %s%s\n", t.label(), t.statsLine())
	if err != nil {
		return fmt.Errorf("tenant %q: %w", t.spec.Name, err)
	}
	return nil
}

// Ready reports whether this tenant's tunnel is serving a remote: it
// becomes ready when start(remote) succeeds, or — for a receive-only
// tenant — when a /config retarget installs a remote.
func (t *tenant) Ready() error {
	if ep := t.endpoint(); ep == nil || ep.RemoteAddr() == "" {
		return fmt.Errorf("tenant %q: no remote configured", t.spec.Name)
	}
	return nil
}

// statsLine renders the counters with weights sorted by port, so the line
// is deterministic run-to-run (a map-ranged print was not). Only called on
// a started tenant.
func (t *tenant) statsLine() string {
	ep := t.endpoint()
	st := ep.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "sent=%d recv=%d flowlets=%d ce=%d fb(tx=%d rx=%d) errs(sock=%d decode=%d) weights=[",
		st.Sent, st.Received, st.Flowlets, st.CEObserved,
		st.FeedbackSent, st.FeedbackReceived,
		st.SocketErrors, st.DecodeErrors)
	for i, pw := range ep.WeightsSorted() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%.3f", pw.Port, pw.Weight)
	}
	b.WriteByte(']')
	return b.String()
}
