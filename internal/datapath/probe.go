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

// rttSample is one path's probe slot: the in-flight probe, if any (seq,
// sent at sentAt; zero sentAt when none), and the latest RTT sample. A new
// ProbePaths round replaces an unanswered probe, so probe state is fixed at
// one slot per path whatever the peer does.
type rttSample struct {
	seq    uint32
	sentAt time.Time
	rtt    time.Duration
	at     time.Time
	count  int64
}

// ProbePaths sends one RTT probe on every path. Echoes record each path's
// RTT for PathRTTs. They are a measurement only: path weights move on ECN
// feedback alone, so a slow but unmarked path keeps its share.
func (e *Endpoint) ProbePaths() {
	if e.remoteAP.Load() == nil {
		return // receive-only: nothing to probe
	}
	now := time.Now()
	e.mu.Lock()
	first := e.probeSeq + 1
	for i := range e.rtts {
		e.probeSeq++
		e.rtts[i].seq, e.rtts[i].sentAt = e.probeSeq, now
	}
	e.mu.Unlock()
	// A probe counts only once it is written; one that never left can get
	// no echo, so its slot is cleared unless a later round took it.
	for i, port := range e.ports {
		seq := first + uint32(i)
		if e.transmit(port, seq, wire.Feedback{}, nil, shimFlagProbe, true) == nil {
			e.probesSent.Add(1)
			continue
		}
		e.mu.Lock()
		if s := &e.rtts[i]; s.seq == seq {
			s.sentAt = time.Time{}
		}
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
	if e.transmit(port, shim.FlowletID, fb, nil, shimFlagProbeEcho, true) == nil {
		sh.stats.probesAnswered.Add(1)
	}
}

// handleProbeEcho resolves the in-flight probe of the echoed path port and
// records the RTT sample. An echo whose seq is not the slot's current probe
// (answered already, or replaced by a later round) is ignored.
func (e *Endpoint) handleProbeEcho(sh *pathShard, shim *wire.SttShim) {
	i := int(e.portIdx[shim.Feedback.Port]) - 1
	if i < 0 {
		return
	}
	now := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	s := &e.rtts[i]
	if s.sentAt.IsZero() || s.seq != shim.FlowletID {
		return
	}
	sh.stats.probeEchoes.Add(1)
	s.rtt = now.Sub(s.sentAt)
	s.at = now
	s.sentAt = time.Time{}
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
