package clove

import (
	"slices"
	"sort"

	"clove/internal/packet"
	"clove/internal/sim"
)

// PeerPaths is the destination hypervisor's record of one remote sender's
// forward paths (Sec. 3.2: "intercepts the ECN/INT information and relays it
// back"), each identified by the encap source port the sender used. It keeps
// the pending CE mark and the latest path metric per port, and hands them
// back one at a time for reflection in reverse traffic. The zero value is an
// empty record; a path is added on its first CE mark or metric.
type PeerPaths struct {
	// paths is sorted by port, so the relay scan is deterministic without
	// per-packet sorting.
	paths []peerPath
}

// peerPath is one forward path's relay state.
type peerPath struct {
	port       uint16
	pendingECN bool
	hasMetric  bool
	metric     float64
	lastRelay  sim.Time
}

// Len reports how many paths the record holds.
func (p *PeerPaths) Len() int { return len(p.paths) }

// NoteCE records a CE mark observed on port; it stays pending until relayed.
func (p *PeerPaths) NoteCE(port uint16) { p.path(port).pendingECN = true }

// NoteMetric records v as port's latest path metric (INT max utilization or
// one-way delay), replacing any earlier one. A metric is never consumed: it
// is relayed again whenever its path is the longest unrelayed.
func (p *PeerPaths) NoteMetric(port uint16, v float64) {
	ob := p.path(port)
	ob.metric, ob.hasMetric = v, true
}

// path returns the record of port, inserting it in port order on first
// sight. The pointer is valid until the next insert.
func (p *PeerPaths) path(port uint16) *peerPath {
	i := sort.Search(len(p.paths), func(i int) bool { return p.paths[i].port >= port })
	if i == len(p.paths) || p.paths[i].port != port {
		// Relayed far in the past, so the first relay is due at once.
		p.paths = slices.Insert(p.paths, i, peerPath{port: port, lastRelay: -1 << 60})
	}
	return &p.paths[i]
}

// Take selects the one observation to reflect at now, with each path relayed
// at most once per interval. It scans the paths in port order, skipping any
// relayed less than interval ago, and takes the first with a pending CE mark,
// else the one with a metric that was relayed longest ago. The taken path's
// mark is cleared and its relay time stamped.
func (p *PeerPaths) Take(now, interval sim.Time) (packet.Feedback, bool) {
	var best *peerPath
	for i := range p.paths {
		ob := &p.paths[i]
		if now-ob.lastRelay < interval {
			continue
		}
		if ob.pendingECN {
			best = ob
			break
		}
		if ob.hasMetric && (best == nil || ob.lastRelay < best.lastRelay) {
			best = ob
		}
	}
	if best == nil {
		return packet.Feedback{}, false
	}
	fb := packet.Feedback{
		Valid:   true,
		Port:    best.port,
		ECN:     best.pendingECN,
		HasUtil: best.hasMetric,
		Util:    best.metric,
	}
	best.pendingECN = false
	best.lastRelay = now
	return fb, true
}
