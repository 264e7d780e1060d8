package vswitch

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"clove/internal/packet"
	"clove/internal/sim"
)

// fbRecorder is an ECMP policy that records, in arrival order, every
// feedback the network reflects to its vswitch.
type fbRecorder struct {
	PathPolicy
	got []packet.Feedback
}

func (r *fbRecorder) OnFeedback(_ packet.HostID, fb packet.Feedback, _ sim.Time) {
	r.got = append(r.got, fb)
}

// refRelay is the receiver side's relay rule as a map-based model: per peer
// and port the pending CE mark, the latest reflected metric and the last
// relay time; a relay scans the ports in ascending order, takes the first
// due path with a pending mark, and otherwise the due path whose metric was
// relayed longest ago. The standalone timer relays only a CE mark, but a
// firing that finds only a due metric still stamps that path's relay time
// and drops the report.
type refRelay struct {
	interval sim.Time
	peers    map[packet.HostID]*refPeer
}

type refPeer struct {
	paths  map[uint16]*refPath
	armed  bool
	fireAt sim.Time
}

type refPath struct {
	pendingECN, hasUtil bool
	util                float64
	lastRelay           sim.Time
}

func (r *refRelay) peer(id packet.HostID) *refPeer {
	p := r.peers[id]
	if p == nil {
		p = &refPeer{paths: map[uint16]*refPath{}}
		r.peers[id] = p
	}
	return p
}

func (r *refRelay) path(id packet.HostID, port uint16) *refPath {
	p := r.peer(id)
	ob := p.paths[port]
	if ob == nil {
		ob = &refPath{lastRelay: -1 << 60}
		p.paths[port] = ob
	}
	return ob
}

func (r *refRelay) take(id packet.HostID, now sim.Time) (packet.Feedback, bool) {
	p := r.peers[id]
	if p == nil {
		return packet.Feedback{}, false
	}
	ports := make([]int, 0, len(p.paths))
	for port := range p.paths {
		ports = append(ports, int(port))
	}
	sort.Ints(ports)
	bestPort := -1
	for _, port := range ports {
		ob := p.paths[uint16(port)]
		if now-ob.lastRelay < r.interval {
			continue
		}
		if ob.pendingECN {
			bestPort = port
			break
		}
		if ob.hasUtil && (bestPort < 0 || ob.lastRelay < p.paths[uint16(bestPort)].lastRelay) {
			bestPort = port
		}
	}
	if bestPort < 0 {
		return packet.Feedback{}, false
	}
	ob := p.paths[uint16(bestPort)]
	fb := packet.Feedback{Valid: true, Port: uint16(bestPort), ECN: ob.pendingECN, HasUtil: ob.hasUtil, Util: ob.util}
	ob.pendingECN = false
	ob.lastRelay = now
	return fb, true
}

// TestPeerFeedbackMatchesReference drives one vswitch's receive side with
// random peers, ports, CE marks, INT and latency samples, interleaved with
// tenant sends that piggyback feedback and with standalone-timer firings,
// and checks every relayed Feedback and both relay counters against
// refRelay. The vswitch and its peers share one leaf, so each peer's
// feedback arrives in the order it was sent.
func TestPeerFeedbackMatchesReference(t *testing.T) {
	const interval = 50*sim.Microsecond + 1 // never a whole step: no timer ties a step
	peers := []packet.HostID{1, 2, 3, 4}
	recs := map[packet.HostID]*fbRecorder{}
	r := newRig(t, 21, func(i int) PathPolicy {
		rec := &fbRecorder{PathPolicy: NewECMP()}
		recs[packet.HostID(i)] = rec
		return rec
	}, func(c *Config) {
		c.RelayInterval = interval
		c.MeasureLatency = true
	})
	v := r.vsw[0]
	rng := rand.New(rand.NewSource(21))
	ref := &refRelay{interval: interval, peers: map[packet.HostID]*refPeer{}}
	want := map[packet.HostID][]packet.Feedback{}
	var piggy, standalone, dropped int64

	fireDue := func(until sim.Time) {
		for {
			var next *refPeer
			var id packet.HostID
			for _, pid := range peers {
				if p := ref.peers[pid]; p != nil && p.armed && p.fireAt <= until && (next == nil || p.fireAt < next.fireAt) {
					next, id = p, pid
				}
			}
			if next == nil {
				return
			}
			next.armed = false
			fb, ok := ref.take(id, next.fireAt)
			switch {
			case ok && fb.ECN:
				standalone++
				want[id] = append(want[id], fb)
			case ok:
				dropped++
			}
		}
	}

	now := sim.Time(0)
	for step := 0; step < 6000; step++ {
		now += sim.Time(1+rng.Intn(40)) * sim.Microsecond
		fireDue(now)
		r.s.RunUntil(now)
		peer := peers[rng.Intn(len(peers))]
		if rng.Intn(3) == 0 {
			// The tenant VM sends toward peer: the packet piggybacks the
			// relay due for that peer, if any.
			p := v.Host().Pool().Get()
			p.Kind = packet.KindData
			p.Inner = packet.FiveTuple{Src: 0, Dst: peer, SrcPort: uint16(1 + rng.Intn(4)), DstPort: 80, Proto: packet.ProtoTCP}
			p.Flow = r.handle(p.Inner)
			p.PayloadLen = 100
			v.FromVM(p)
			if fb, ok := ref.take(peer, now); ok {
				piggy++
				want[peer] = append(want[peer], fb)
			}
			continue
		}
		// A packet from peer arrives on one of its paths.
		port := uint16(50000 + rng.Intn(8))
		inner := packet.FiveTuple{Src: peer, Dst: 0, SrcPort: 9, DstPort: 9, Proto: packet.ProtoTCP}
		p := &packet.Packet{
			Kind:       packet.KindData,
			Inner:      inner,
			Flow:       r.handle(inner),
			PayloadLen: 100,
			Encap:      &packet.Encap{SrcHyp: peer, DstHyp: 0, SrcPort: port, DstPort: EncapDstPort, ECT: true, CE: rng.Intn(4) == 0},
		}
		ob := ref.path(peer, port)
		if p.Encap.CE {
			ob.pendingECN = true
			if pr := ref.peer(peer); !pr.armed {
				pr.armed, pr.fireAt = true, now+interval
			}
		}
		if rng.Intn(3) == 0 {
			p.INT.Enabled, p.INT.MaxUtil = true, rng.Float64()
			ob.util, ob.hasUtil = p.INT.MaxUtil, true
		}
		if rng.Intn(3) == 0 {
			sent := now - sim.Time(rng.Intn(int(now)))
			p.SentAtNs = int64(sent)
			ob.util, ob.hasUtil = (now - sent).Seconds(), true
		}
		v.FromNetwork(p)
	}
	end := now + 100*sim.Millisecond
	fireDue(end)
	r.s.RunUntil(end)

	for _, peer := range peers {
		if got := recs[peer].got; !reflect.DeepEqual(got, want[peer]) {
			t.Fatalf("peer %d: %d relays reflected, reference %d\ngot  %+v\nwant %+v", peer, len(got), len(want[peer]), got, want[peer])
		}
	}
	st := v.Stats()
	if st.FeedbackPiggy != piggy || st.FeedbackStandalone != standalone {
		t.Errorf("FeedbackPiggy %d, FeedbackStandalone %d; reference %d, %d", st.FeedbackPiggy, st.FeedbackStandalone, piggy, standalone)
	}
	if piggy == 0 || standalone == 0 || dropped == 0 {
		t.Errorf("weak coverage: %d piggybacked, %d standalone, %d dropped by the timer", piggy, standalone, dropped)
	}
}
