package datapath

import (
	"time"

	"clove/internal/wire"
)

// Shim flag bits used by the datapath's path-quality probing.
const (
	shimFlagProbe     = 1 << 6
	shimFlagProbeEcho = 1 << 7
)

// PathRTT is one path's latest probe measurement.
type PathRTT struct {
	Port    uint16
	RTT     time.Duration
	Age     time.Duration // since the sample was taken
	Samples int64
}

// probeState tracks one in-flight probe.
type probeState struct {
	path   int // index into Endpoint.ports
	sentAt time.Time
}

type rttSample struct {
	rtt   time.Duration
	at    time.Time
	count int64
}

// ProbePaths sends one RTT probe on every path. Echoes record each path's
// RTT for PathRTTs. They are a measurement only: path weights move on ECN
// feedback alone, so a slow but unmarked path keeps its share.
func (e *Endpoint) ProbePaths() {
	if e.remoteAP.Load() == nil {
		return // receive-only: registering in-flight probes would leak them
	}
	now := time.Now()
	e.mu.Lock()
	// Prune probes that were lost on the wire; their entries would otherwise
	// accumulate forever.
	for seq, st := range e.probes {
		if now.Sub(st.sentAt) > probeExpiry {
			delete(e.probes, seq)
		}
	}
	first := e.probeSeq + 1
	for i := range e.ports {
		e.probeSeq++
		e.probes[e.probeSeq] = probeState{path: i, sentAt: now}
	}
	e.mu.Unlock()
	// A probe counts only once it is written; one that never left can get
	// no echo, so its in-flight entry goes too.
	for i, port := range e.ports {
		seq := first + uint32(i)
		if e.transmit(port, seq, wire.Feedback{}, nil, shimFlagProbe) == nil {
			e.probesSent.Add(1)
			continue
		}
		e.mu.Lock()
		delete(e.probes, seq)
		e.mu.Unlock()
	}
}

// handleProbe answers an incoming probe: echo its sequence and the path
// port it arrived on, so the prober can attribute the RTT. Runs on the
// receiving shard's goroutine. A probe counts as answered only once its
// echo is written.
func (e *Endpoint) handleProbe(sh *pathShard, shim *wire.SttShim) {
	e.mu.Lock()
	port := e.curPort
	e.mu.Unlock()
	if port == 0 {
		port = e.ports[0]
	}
	// The echo carries the original probe's path port in the feedback
	// field (attribution) and the sequence in FlowletID.
	fb := wire.Feedback{Valid: true, Port: shim.PathPort}
	if e.transmit(port, shim.FlowletID, fb, nil, shimFlagProbeEcho) == nil {
		sh.stats.probesAnswered.Add(1)
	}
}

// handleProbeEcho resolves an in-flight probe and records the RTT sample.
func (e *Endpoint) handleProbeEcho(sh *pathShard, shim *wire.SttShim) {
	now := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.probes[shim.FlowletID]
	if !ok {
		return
	}
	delete(e.probes, shim.FlowletID)
	sh.stats.probeEchoes.Add(1)
	s := &e.rtts[st.path]
	s.rtt = now.Sub(st.sentAt)
	s.at = now
	s.count++
}

// PathRTTs returns the latest per-path RTT samples, sorted by port order.
func (e *Endpoint) PathRTTs() []PathRTT {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := time.Now()
	out := make([]PathRTT, len(e.ports))
	for i, port := range e.ports {
		s := e.rtts[i]
		out[i] = PathRTT{Port: port, RTT: s.rtt, Samples: s.count}
		if s.count > 0 {
			out[i].Age = now.Sub(s.at)
		}
	}
	return out
}
