package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"clove/internal/datapath"
)

// adminServer serves cloved's operational API:
//
//	GET  /healthz  — liveness: 200 while the process runs
//	GET  /readyz   — readiness: 200 once every tenant tunnel has a remote
//	GET  /stats    — JSON stats, sorted weights, and RTTs per tenant
//	POST /config   — hot-reload: flowlet gap, relay interval, remote
//
// app.start brings it up first so liveness is observable before (and
// readiness reflects) tenant bring-up, and app.stop shuts it down last so
// /stats stays queryable through the drain. Handlers read tenant state
// through the endpoints' atomics only and take no lock app.stop holds: stop
// waits on http.Server.Shutdown, which waits on in-flight handlers, so a
// handler blocking on the drain would deadlock it.
type adminServer struct {
	app  *app
	addr string

	ln  net.Listener
	srv *http.Server
}

func newAdminServer(a *app, addr string) *adminServer {
	s := &adminServer{app: a, addr: addr}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/config", s.handleConfig)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	return s
}

// Addr returns the bound address (resolves ":0" requests); valid after
// start.
func (s *adminServer) Addr() string {
	if s.ln == nil {
		return s.addr
	}
	return s.ln.Addr().String()
}

func (s *adminServer) start() error {
	ln, err := net.Listen("tcp", s.addr)
	if err != nil {
		return fmt.Errorf("admin: listen %s: %w", s.addr, err)
	}
	s.ln = ln
	go s.srv.Serve(ln)
	fmt.Fprintf(s.app.stdout, "admin: http://%s\n", ln.Addr())
	return nil
}

// stop shuts the server down, waiting up to 5 s for in-flight requests.
func (s *adminServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

func (s *adminServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *adminServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	for _, t := range s.app.tenants {
		if err := t.Ready(); err != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, err)
			return
		}
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// tenantStatus is the /stats JSON shape for one tenant.
type tenantStatus struct {
	Name          string                `json:"name"`
	Ports         []uint16              `json:"ports"`
	Remote        string                `json:"remote,omitempty"`
	Ready         bool                  `json:"ready"`
	FlowletGap    Duration              `json:"flowlet_gap"`
	RelayInterval Duration              `json:"relay_interval"`
	Stats         datapath.Stats        `json:"stats"`
	Weights       []datapath.PathWeight `json:"weights"`
	RTTs          []pathRTTStatus       `json:"rtts,omitempty"`
}

type pathRTTStatus struct {
	Port    uint16 `json:"port"`
	RTTNs   int64  `json:"rtt_ns"`
	AgeNs   int64  `json:"age_ns"`
	Samples int64  `json:"samples"`
}

type statsResponse struct {
	Tenants []tenantStatus `json:"tenants"`
}

func (s *adminServer) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{Tenants: make([]tenantStatus, 0, len(s.app.tenants))}
	for _, t := range s.app.tenants {
		ts := tenantStatus{Name: t.spec.Name}
		if ep := t.endpoint(); ep != nil {
			ts.Remote = ep.RemoteAddr()
			ts.Ready = ts.Remote != ""
			ts.Ports = ep.Ports()
			ts.FlowletGap = Duration(ep.FlowletGap())
			ts.RelayInterval = Duration(ep.RelayInterval())
			ts.Stats = ep.Stats()
			ts.Weights = ep.WeightsSorted()
			for _, rtt := range ep.PathRTTs() {
				if rtt.Samples > 0 {
					ts.RTTs = append(ts.RTTs, pathRTTStatus{
						Port: rtt.Port, RTTNs: int64(rtt.RTT), AgeNs: int64(rtt.Age), Samples: rtt.Samples,
					})
				}
			}
		}
		resp.Tenants = append(resp.Tenants, ts)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// configRequest is the /config POST body. Absent fields are left unchanged;
// "tenant" selects the overlay (default: the first).
type configRequest struct {
	Tenant        string    `json:"tenant,omitempty"`
	FlowletGap    *Duration `json:"flowlet_gap,omitempty"`
	RelayInterval *Duration `json:"relay_interval,omitempty"`
	Remote        *string   `json:"remote,omitempty"`
}

func (s *adminServer) handleConfig(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var req configRequest
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad config: "+err.Error(), http.StatusBadRequest)
		return
	}
	t := s.app.tenantNamed(req.Tenant)
	if t == nil {
		http.Error(w, fmt.Sprintf("unknown tenant %q", req.Tenant), http.StatusNotFound)
		return
	}
	ep := t.endpoint()
	if ep == nil {
		http.Error(w, fmt.Sprintf("tenant %q not started", t.spec.Name), http.StatusServiceUnavailable)
		return
	}
	if req.FlowletGap != nil && *req.FlowletGap <= 0 {
		http.Error(w, "flowlet_gap must be positive", http.StatusBadRequest)
		return
	}
	if req.RelayInterval != nil && *req.RelayInterval < 0 {
		http.Error(w, "relay_interval must not be negative", http.StatusBadRequest)
		return
	}
	// Validated: apply. Retarget goes first so a bad remote rejects the
	// request before any knob moved.
	if req.Remote != nil {
		if err := ep.Retarget(*req.Remote); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	if req.FlowletGap != nil {
		ep.SetFlowletGap(time.Duration(*req.FlowletGap))
	}
	if req.RelayInterval != nil {
		ep.SetRelayInterval(time.Duration(*req.RelayInterval))
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"tenant":         t.spec.Name,
		"flowlet_gap":    Duration(ep.FlowletGap()),
		"relay_interval": Duration(ep.RelayInterval()),
		"remote":         ep.RemoteAddr(),
	})
}
