package netem

import (
	"fmt"
	"sort"

	"clove/internal/packet"
	"clove/internal/sim"
)

// SwitchLB lets an in-network load balancer (the CONGA baseline) take over
// egress selection and observe traffic at a switch. The default fabric uses
// plain ECMP and needs no hook.
type SwitchLB interface {
	// Observe sees every packet the switch receives, before forwarding.
	Observe(sw *Switch, pkt *packet.Packet, ingress *Link)
	// Pick chooses the egress among ECMP candidates. ok=false falls back to
	// standard ECMP hashing.
	Pick(sw *Switch, pkt *packet.Packet, candidates []*Link) (*Link, bool)
}

// SwitchStats aggregates counters across a switch.
type SwitchStats struct {
	RxPackets   int64
	NoRoute     int64
	ProbeEchoes int64
	TTLDrops    int64
}

// Switch is an output-queued L3 switch. It forwards on the packet's outer
// destination using equal-cost multi-path: the set of next-hop links is
// precomputed by the Topology, and the choice among them is a hash of the
// outer 5-tuple salted with a per-switch seed — so, as in a real fabric, the
// edge cannot predict the port→path mapping and must discover it (Sec. 3.1).
type Switch struct {
	id   packet.NodeID
	name string
	sim  *sim.Simulator
	pool *packet.Pool
	seed uint64
	topo *Topology

	egress       []*Link // all egress links, kept sorted by ID once finalized
	egressSorted bool
	// routes holds the ECMP next-hop sets indexed by destination leaf, as a
	// Clos switch routes on a rack's prefix (Topology.hostLeaf maps a host to
	// its leaf): a dense slice, no hashing on the per-packet lookup. leafIdx
	// is this switch's own leaf index (-1: not a leaf); toward its own hosts
	// a leaf forwards on each host's one-element [downlink] set instead.
	routes  [][]*Link
	leafIdx int32

	lb SwitchLB
	// stampLoad makes this switch initiate INT on transiting data packets
	// (Charon-style switch-assisted telemetry): the fabric stamps per-path
	// load whether or not the edge asked for it. See SetLoadStamp.
	stampLoad bool
	stats     SwitchStats
}

// ID implements Node.
func (s *Switch) ID() packet.NodeID { return s.id }

// Name returns the builder-assigned name (e.g. "L1", "S2").
func (s *Switch) Name() string { return s.name }

// Sim returns the Simulator this switch schedules on.
func (s *Switch) Sim() *sim.Simulator { return s.sim }

// SetLB installs an in-network load balancer hook (CONGA).
func (s *Switch) SetLB(lb SwitchLB) { s.lb = lb }

// SetLoadStamp makes the switch enable INT on every data packet it
// forwards, so the fabric itself reports per-path load to the edges without
// the sending hypervisor requesting telemetry (the switch-assisted Charon
// scheme). Once enabled here, the ordinary INT stamping records this and
// every downstream hop's egress utilization. Stamping is a purely local
// read of the chosen egress link's DRE; unlike CONGA it keeps no per-switch
// tables. Turning it on makes the topology track utilization.
func (s *Switch) SetLoadStamp(on bool) {
	if s.stampLoad = on; on {
		s.topo.TrackUtilization()
	}
}

// Stats returns a snapshot of switch counters.
func (s *Switch) Stats() SwitchStats { return s.stats }

// Egress returns all egress links, sorted by ID.
func (s *Switch) Egress() []*Link {
	s.sortEgress()
	return s.egress
}

// NextHops returns the current ECMP candidate set toward dst (nil if
// unreachable). The switch keeps one set per destination leaf, shared,
// read-only, by every host behind that leaf: the returned slice must not be
// modified (its len == cap, so an append copies), and the next ComputeRoutes
// rewrites it in place.
func (s *Switch) NextHops(dst packet.HostID) []*Link { return s.nextHops(dst) }

// nextHops is the forwarding-path route lookup: dense-indexed, bounds-guarded
// (unknown hosts, dead downlinks and switches not yet routed: unreachable).
func (s *Switch) nextHops(dst packet.HostID) []*Link {
	hl := s.topo.hostLeaf
	if uint(dst) >= uint(len(hl)) {
		return nil
	}
	c := hl[dst]
	if uint(c) >= uint(len(s.routes)) {
		return nil
	}
	if c == s.leafIdx {
		return s.topo.hosts[dst].down[:]
	}
	return s.routes[c]
}

// hashTuple implements the ECMP hash: FNV-1a over the 5-tuple, salted.
// FoldFNV folds the tuple's zero bytes as powers of the prime, so the
// per-packet routing decision costs 12 dependent multiplies where the byte
// loop took 32, and the same values.
func hashTuple(seed uint64, t packet.FiveTuple) uint64 {
	h := t.FoldFNV(packet.FNVOffset ^ seed)
	// Avalanche finalizer (Murmur3-style). Without it, the per-switch seed
	// only offsets the FNV state, and the offset propagates almost
	// additively — two switches' hashes then differ by a near-constant, so
	// their modulo choices correlate and deep Clos topologies lose path
	// diversity.
	h ^= seed
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// ecmpPick returns the hash-selected candidate. Candidates must be non-empty.
func (s *Switch) ecmpPick(pkt *packet.Packet, candidates []*Link) *Link {
	if len(candidates) == 1 {
		return candidates[0]
	}
	return candidates[ecmpIndex(hashTuple(s.seed, pkt.OuterTuple()), len(candidates))]
}

// ecmpIndex reduces hash h onto n candidates: h % n, taken as a mask when n
// is a power of two, where a 64-bit divide would cost tens of cycles.
func ecmpIndex(h uint64, n int) int {
	m := uint64(n)
	if m&(m-1) == 0 {
		return int(h & (m - 1))
	}
	return int(h % m)
}

// RoutePreview returns the egress link plain ECMP would choose for pkt,
// without forwarding it or touching any state. It returns nil when the
// destination is unreachable. Used by oracle-style path enumeration in
// tests and fast experiment setup; the data plane never calls it.
func (s *Switch) RoutePreview(pkt *packet.Packet) *Link {
	candidates := s.nextHops(pkt.OuterDst())
	if len(candidates) == 0 {
		return nil
	}
	return s.ecmpPick(pkt, candidates)
}

// Receive implements Node: route, apply telemetry, and enqueue on egress.
func (s *Switch) Receive(pkt *packet.Packet, ingress *Link) {
	s.stats.RxPackets++
	if s.lb != nil {
		s.lb.Observe(s, pkt, ingress)
	}

	if pkt.Kind == packet.KindProbe {
		pkt.TTL--
		if pkt.TTL <= 0 {
			s.answerProbe(pkt)
			return
		}
	}

	dst := pkt.OuterDst()
	candidates := s.nextHops(dst)
	if len(candidates) == 0 {
		s.stats.NoRoute++
		s.pool.Put(pkt)
		return
	}

	var eg *Link
	if s.lb != nil {
		if picked, ok := s.lb.Pick(s, pkt, candidates); ok {
			eg = picked
		}
	}
	if eg == nil {
		eg = s.ecmpPick(pkt, candidates)
	}

	// Switch-assisted load stamping (Charon): the fabric initiates INT on
	// transit data traffic, so the block below stamps this hop and
	// INT.Enabled rides the packet to stamp every later hop too.
	if s.stampLoad && pkt.Kind == packet.KindData {
		pkt.INT.Enabled = true
	}

	// Telemetry stamping happens at egress selection: INT records the
	// maximum egress utilization along the path; CONGA accumulates its
	// congestion metric the same way.
	if pkt.INT.Enabled {
		if u := eg.Utilization(); u > pkt.INT.MaxUtil {
			pkt.INT.MaxUtil = u
		}
		pkt.INT.Hops++
	}
	if pkt.Conga != nil {
		if u := eg.Utilization(); u > pkt.Conga.CEMetric {
			pkt.Conga.CEMetric = u
		}
	}

	eg.Enqueue(pkt)
}

// answerProbe emits a KindProbeEcho back to the probing hypervisor,
// reporting which egress this switch would have hashed the probe onto. This
// is the simulator's analogue of a TTL-expired ICMP reply in the
// Paris-traceroute-style discovery mechanism (Sec. 3.1).
func (s *Switch) answerProbe(probe *packet.Packet) {
	s.stats.ProbeEchoes++
	src := probe.Encap.SrcHyp

	// What egress would the probe have taken had it lived?
	var chosenLink packet.LinkID = -1
	if cands := s.nextHops(probe.OuterDst()); len(cands) > 0 {
		chosenLink = s.ecmpPick(probe, cands).ID()
	}

	echo := s.pool.Get()
	echo.Kind = packet.KindProbeEcho
	echo.ProbeID = probe.ProbeID
	echo.ProbePort = probe.ProbePort
	echo.HopIndex = probe.HopIndex
	echo.EchoNode = s.id
	echo.EchoLink = chosenLink
	echo.TTL = 64
	e := echo.AddEncap()
	e.SrcHyp = probe.Encap.DstHyp // nominal; echoes route on DstHyp
	e.DstHyp = src
	e.SrcPort = probe.ProbePort
	e.DstPort = probe.Encap.DstPort

	// The probe terminates here; the echo replaces it on the wire.
	s.pool.Put(probe)

	cands := s.nextHops(src)
	if len(cands) == 0 {
		s.stats.NoRoute++
		s.pool.Put(echo)
		return
	}
	s.ecmpPick(echo, cands).Enqueue(echo)
}

// addEgress registers a new egress link. Insertion just appends and marks
// the slice dirty; sortEgress sorts once when the set is first consumed
// (route computation or the Egress accessor). Sorting on every insertion
// made topology build O(n²·log n) in the per-switch port count, which
// dominated setup on large fat-trees.
func (s *Switch) addEgress(l *Link) {
	s.egress = append(s.egress, l)
	s.egressSorted = false
}

// sortEgress finalizes the egress set into ID order. Link IDs are unique,
// so the order is total and identical to what per-insertion sorting
// produced — ECMP candidate order (and hence every golden figure) does not
// depend on when the sort happens.
func (s *Switch) sortEgress() {
	if s.egressSorted {
		return
	}
	sort.Slice(s.egress, func(i, j int) bool { return s.egress[i].ID() < s.egress[j].ID() })
	s.egressSorted = true
}

// String implements fmt.Stringer.
func (s *Switch) String() string { return fmt.Sprintf("switch %s(%d)", s.name, s.id) }
