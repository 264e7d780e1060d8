// Command cloved runs a real userspace Clove tunnel endpoint over UDP as an
// operated, long-running service: multiple local sockets (one per ECMP
// path, distinguished by outer source port), flowlet switching, in-band
// congestion feedback with adaptive path weights — plus ordered bring-up
// and graceful drain on SIGINT/SIGTERM, an optional admin plane
// (-admin) serving health/readiness probes, JSON stats, and hot-reload of
// the flowlet gap, relay interval, and remote without dropping flows, and
// multi-tenant serving (-tenants) mapping N overlays onto N shared-nothing
// endpoints in one process.
//
// Lines read from stdin are sent through the (first) tenant's tunnel;
// received payloads are printed to stdout. Two instances pointed at each
// other (or at a path emulator) form a bidirectional overlay.
//
// Example (two terminals):
//
//	cloved -listen 127.0.0.1 -paths 4 -admin 127.0.0.1:7070
//	  -> prints "paths: [p1 p2 p3 p4]"; pick the first port P
//	cloved -listen 127.0.0.1 -paths 4 -remote 127.0.0.1:P
//	  -> then re-point the first instance without restarting it:
//	     curl -X POST -d '{"remote":"127.0.0.1:Q"}' http://127.0.0.1:7070/config
//
// On SIGINT/SIGTERM the service drains: input stops, tickers stop, every
// tenant — last one first — flushes its transmit rings and closes within
// -drain-timeout, a final stats line is emitted per tenant, the admin plane
// shuts down last, and the process exits 0.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"clove/internal/datapath"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main with its environment injected, so tests can drive the whole
// service — flags, signals, drain, exit code — in process.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cloved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := datapath.DefaultConfig()
	var (
		listen   = fs.String("listen", "127.0.0.1", "local IP to bind path sockets on")
		remote   = fs.String("remote", "", "remote endpoint addr (host:port); empty = receive-only until a /config retarget")
		paths    = fs.Int("paths", def.Paths, "number of path sockets (outer source ports)")
		gap      = fs.Duration("flowlet-gap", def.FlowletGap, "flowlet inter-packet gap")
		relay    = fs.Duration("relay", def.RelayInterval, "feedback relay interval")
		stats    = fs.Duration("stats", 2*time.Second, "stats print interval (0 disables)")
		keepint  = fs.Duration("keepalive", 100*time.Millisecond, "keepalive/feedback-carrier interval (0 disables)")
		admin    = fs.String("admin", "", "admin HTTP addr (host:port) serving /healthz /readyz /stats /config; empty disables")
		tenants  = fs.String("tenants", "", "JSON tenants spec file; overrides -listen/-remote/-paths/-flowlet-gap/-relay")
		drainTmo = fs.Duration("drain-timeout", 5*time.Second, "max wait for each tenant's drain on shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *drainTmo <= 0 {
		fmt.Fprintln(stderr, "cloved: -drain-timeout must be positive")
		return 2
	}

	// Serialize writers: tenants, tickers, and the admin plane all print.
	stdout, stderr = newSyncWriter(stdout), newSyncWriter(stderr)

	cfg := appConfig{
		adminAddr:     *admin,
		keepalive:     *keepint,
		statsEvery:    *stats,
		drainTimeout:  *drainTmo,
		serveAfterEOF: *admin != "" || *tenants != "",
	}
	if *tenants != "" {
		specs, err := loadTenants(*tenants)
		if err != nil {
			fmt.Fprintln(stderr, "cloved:", err)
			return 1
		}
		cfg.tenants = specs
	} else {
		cfg.tenants = []TenantSpec{{
			Name:          "default",
			Listen:        *listen,
			Remote:        *remote,
			Paths:         *paths,
			FlowletGap:    Duration(*gap),
			RelayInterval: Duration(*relay),
		}}
	}

	a, err := newApp(cfg, stdin, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "cloved:", err)
		return 1
	}
	if err := a.start(); err != nil {
		fmt.Fprintln(stderr, "cloved:", err)
		return 1
	}

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	exit := 0
	select {
	case s := <-sigCh:
		fmt.Fprintf(stdout, "cloved: received %v, draining\n", s)
	case err := <-a.inputDone:
		if err != nil {
			// The old scanner loop dropped this error and exited silently;
			// a >64 KiB line looked like a clean EOF.
			fmt.Fprintln(stderr, "cloved: stdin:", err)
			exit = 1
		} else if a.cfg.serveAfterEOF {
			fmt.Fprintln(stdout, "cloved: stdin closed; serving until signalled")
			s := <-sigCh
			fmt.Fprintf(stdout, "cloved: received %v, draining\n", s)
		}
	}
	if err := a.stop(); err != nil {
		fmt.Fprintln(stderr, "cloved: shutdown:", err)
		if exit == 0 {
			exit = 1
		}
	}
	return exit
}

// syncWriter serializes concurrent writers (shard receive callbacks, stats
// tickers, the drain path) onto one stream.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func newSyncWriter(w io.Writer) io.Writer {
	if _, ok := w.(*syncWriter); ok {
		return w
	}
	return &syncWriter{w: w}
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
