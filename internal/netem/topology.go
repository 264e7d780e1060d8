package netem

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"clove/internal/packet"
	"clove/internal/sim"
)

// Topology owns every node and link in the fabric and computes ECMP routing.
// It supports arbitrary graphs; the leaf–spine and fat-tree builders below
// cover the paper's setups.
type Topology struct {
	Sim *sim.Simulator

	// pool is the simulation-wide packet free list. Every link, switch, and
	// host of this topology shares it, as do the vswitches and TCP endpoints
	// stacked on top (they fetch it via Host.Pool / Topology.Pool).
	pool *packet.Pool

	hosts    []*Host
	switches []*Switch
	links    []*Link
	nextNode packet.NodeID
	nextLink packet.LinkID
	slab     slabs

	// hostLeaf maps each HostID to its leaf's Switch.leafIdx, or -1 while
	// the host's downlink is down (ComputeRoutes).
	hostLeaf []int32
	rs       routeScratch

	// RouteRecomputeDelay models routing-protocol reconvergence after a
	// topology change: route tables update this long after SetLinkPairUp.
	// Zero means instantaneous.
	RouteRecomputeDelay sim.Time
}

// slabs are the backing arrays a builder sizes from its counts
// (Topology.reserve). AddSwitch, AddHost and Connect carve each new switch,
// host, link, link ring and egress set from them, and allocate one object at
// a time once a slab is spent, as for a hand-built topology.
type slabs struct {
	switches []Switch
	hosts    []Host
	links    []Link
	rings    []*packet.Packet
	egress   []*Link
}

// carve takes the next n elements of *slab as a full slice (len == cap), or
// makes n new ones when fewer are left.
func carve[T any](slab *[]T, n int) []T {
	if len(*slab) < n {
		return make([]T, n)
	}
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// reserve sizes the slabs and the node and link lists for a fabric of the
// given counts: rings is the links' initial ring slots in total, egress the
// switches' egress links.
func (t *Topology) reserve(switches, hosts, links, rings, egress int) {
	t.slab = slabs{
		switches: make([]Switch, switches),
		hosts:    make([]Host, hosts),
		links:    make([]Link, links),
		rings:    make([]*packet.Packet, rings),
		egress:   make([]*Link, egress),
	}
	t.switches = slices.Grow(t.switches, switches)
	t.hosts = slices.Grow(t.hosts, hosts)
	t.links = slices.Grow(t.links, links)
}

// NewTopology creates an empty fabric bound to s, with a fresh packet pool.
func NewTopology(s *sim.Simulator) *Topology {
	return &Topology{Sim: s, pool: &packet.Pool{}}
}

// Pool returns the simulation-wide packet free list.
func (t *Topology) Pool() *packet.Pool { return t.pool }

// Pools returns the same pool as a one-element slice, for callers that sum
// over a topology's pools.
func (t *Topology) Pools() []*packet.Pool { return []*packet.Pool{t.pool} }

// Hosts returns all hosts in creation order (HostID order).
func (t *Topology) Hosts() []*Host { return t.hosts }

// Switches returns all switches in creation order.
func (t *Topology) Switches() []*Switch { return t.switches }

// Links returns all links in creation order (LinkID order).
func (t *Topology) Links() []*Link { return t.links }

// Host returns the host with the given fabric address.
func (t *Topology) Host(id packet.HostID) *Host { return t.hosts[id] }

// LinkByID returns the link with the given ID.
func (t *Topology) LinkByID(id packet.LinkID) *Link { return t.links[id] }

// LinkByName returns the link named "From->To#k" (Link.Name), or nil. It
// parses the name and scans the sending node's egress links, so it builds no
// names.
func (t *Topology) LinkByName(name string) *Link {
	from, rest, ok := strings.Cut(name, "->")
	i := strings.LastIndexByte(rest, '#')
	if !ok || i < 0 {
		return nil
	}
	k, err := strconv.Atoi(rest[i+1:])
	if err != nil || strconv.Itoa(k) != rest[i+1:] {
		return nil
	}
	return t.link(from, rest[:i], k)
}

// link returns the trunk-th link from the node named from to the node named
// to, or nil.
func (t *Topology) link(from, to string, trunk int) *Link {
	if sw := t.SwitchByName(from); sw != nil {
		for _, l := range sw.egress {
			if l.matches(to, trunk) {
				return l
			}
		}
		return nil
	}
	for _, h := range t.hosts {
		if h.name == from && h.uplink.matches(to, trunk) {
			return h.uplink
		}
	}
	return nil
}

// SwitchByName returns the switch with the builder-assigned name, or nil.
func (t *Topology) SwitchByName(name string) *Switch {
	for _, sw := range t.switches {
		if sw.name == name {
			return sw
		}
	}
	return nil
}

// AddSwitch creates a switch. The per-switch ECMP hash seed is derived
// deterministically from the node ID so that runs are reproducible while
// different switches still hash differently.
func (t *Topology) AddSwitch(name string) *Switch { return t.addSwitch(name, 0) }

// addSwitch is AddSwitch with room for egress links reserved.
func (t *Topology) addSwitch(name string, egress int) *Switch {
	sw := &carve(&t.slab.switches, 1)[0]
	*sw = Switch{
		id:   t.nextNode,
		name: name,
		sim:  t.Sim,
		pool: t.pool,
		seed: 0x9e3779b97f4a7c15 * uint64(t.nextNode+1),
		topo: t,
		// Not a leaf until a recompute finds a host behind it.
		leafIdx: -1,
		egress:  carve(&t.slab.egress, egress)[:0],
	}
	t.nextNode++
	t.switches = append(t.switches, sw)
	return sw
}

// AddHost creates a host attached to leaf over a bidirectional link pair.
// upCfg shapes the host's transmit path (NIC ring + qdisc: deep, no ECN
// marking — a local stack backpressures rather than marks); downCfg shapes
// the leaf's switch port toward the host.
func (t *Topology) AddHost(name string, leaf *Switch, upCfg, downCfg LinkConfig) *Host {
	h := &carve(&t.slab.hosts, 1)[0]
	*h = Host{id: t.nextNode, hostID: packet.HostID(len(t.hosts)), name: name, pool: t.pool}
	t.nextNode++
	h.uplink = t.addLink(h, leaf, 0, upCfg)
	h.down[0] = t.addLink(leaf, h, 0, downCfg)
	leaf.addEgress(h.down[0])
	t.hosts = append(t.hosts, h)
	return h
}

// HostQdiscCap is the depth of a host's transmit queue (Linux txqueuelen
// order of magnitude), much deeper than a switch port.
const HostQdiscCap = 1024

// Connect creates the k-th bidirectional link pair between two switches.
func (t *Topology) Connect(a, b *Switch, trunk int, cfg LinkConfig) {
	ab := t.addLink(a, b, trunk, cfg)
	ba := t.addLink(b, a, trunk, cfg)
	a.addEgress(ab)
	b.addEgress(ba)
}

func (t *Topology) addLink(from, to Node, trunk int, cfg LinkConfig) *Link {
	l := &carve(&t.slab.links, 1)[0]
	l.init(t.Sim, t.pool, t.nextLink, from, to, cfg, carve(&t.slab.rings, cfg.ringSlots()))
	l.trunk = int32(trunk)
	t.nextLink++
	t.links = append(t.links, l)
	return l
}

// TrackUtilization gives every link of t a DRE, so that Link.Utilization can
// be read. The code that makes packets carry INT or CONGA state calls it once
// the fabric is built. A DRE that missed a transmission would read low, so a
// link that has already transmitted panics.
func (t *Topology) TrackUtilization() {
	for _, l := range t.links {
		if l.dre == nil {
			if l.stats.TxPackets > 0 {
				panic(fmt.Sprintf("netem: %s: utilization tracking turned on after its first transmission", l))
			}
			l.dre = NewDRE(t.Sim, l.rate)
		}
	}
}

// SetLinkPairUp changes the state of both directions of the trunk-th link
// pair between switches named a and b, then recomputes routing (after
// RouteRecomputeDelay if configured). It panics if the pair does not exist:
// failing a nonexistent link is always a test-configuration bug.
func (t *Topology) SetLinkPairUp(a, b string, trunk int, up bool) {
	l1, l2 := t.linkPair(a, b, trunk)
	l1.SetUp(up)
	l2.SetUp(up)
	t.scheduleRecompute()
}

// SetSwitchUp changes the state of every link adjacent to the named switch
// (both directions), modelling a whole-switch failure or recovery, then
// recomputes routing once (after RouteRecomputeDelay if configured). It
// panics if the switch does not exist: failing a nonexistent switch is
// always a test-configuration bug.
func (t *Topology) SetSwitchUp(name string, up bool) {
	sw := t.SwitchByName(name)
	if sw == nil {
		panic(fmt.Sprintf("netem: no switch %q", name))
	}
	for _, l := range t.links {
		if l.from == Node(sw) || l.to == Node(sw) {
			l.SetUp(up)
		}
	}
	t.scheduleRecompute()
}

// SetLinkPairRate changes the rate of both directions of the trunk-th link
// pair between switches named a and b (scenario speed downgrades). It panics
// if the pair does not exist.
func (t *Topology) SetLinkPairRate(a, b string, trunk int, rateBps int64) {
	l1, l2 := t.linkPair(a, b, trunk)
	l1.SetRateBps(rateBps)
	l2.SetRateBps(rateBps)
}

// linkPair returns both directions of a trunk, or panics if there is none.
func (t *Topology) linkPair(a, b string, trunk int) (*Link, *Link) {
	l1, l2 := t.link(a, b, trunk), t.link(b, a, trunk)
	if l1 == nil || l2 == nil {
		panic(fmt.Sprintf("netem: no link pair %s / %s", linkName(a, b, trunk), linkName(b, a, trunk)))
	}
	return l1, l2
}

// scheduleRecompute reruns ComputeRoutes after the reconvergence delay.
func (t *Topology) scheduleRecompute() {
	if t.RouteRecomputeDelay <= 0 {
		t.ComputeRoutes()
		return
	}
	t.Sim.After(t.RouteRecomputeDelay, t.ComputeRoutes)
}

// ComputeRoutes rebuilds every switch's ECMP table: for each destination
// host, the next-hops are all up egress links lying on a shortest path.
//
// A host's only inbound link is its leaf's downlink, so the leaf forwards on
// [downlink] and every other switch's shortest-path next-hops toward the host
// are exactly its next-hops toward the leaf; a host whose downlink is down
// has no route anywhere. Hosts are never transit, so this is one reverse BFS
// per leaf over the switch graph, and each switch keeps one set per
// destination leaf — the same sets, in the same egress order, as a BFS per
// host (TestComputeRoutesMatchesPerHostReference), for a cost that does not
// grow with the host count. It runs in-simulation on every link flap of a
// failure storm, so its working memory stays on the Topology: a recompute
// after the first allocates nothing, and the first allocates a fixed number
// of arrays, whatever the fabric's size.
func (t *Topology) ComputeRoutes() {
	// The switch graph, flat arrays indexed by the dense NodeIDs: each
	// switch's up egress links toward switches in ID order (the ECMP
	// candidate order), and their reverse edges for the BFS. A first pass
	// counts each node's edges, so that every list is a window of one
	// array.
	r := &t.rs
	nNodes := int(t.nextNode)
	r.deg = slices.Grow(r.deg[:0], 2*nNodes)[:2*nNodes] // out-degree, in-degree
	clear(r.deg)
	r.leaves = slices.Grow(r.leaves[:0], len(t.switches))
	nEdges := 0
	for _, sw := range t.switches {
		sw.sortEgress() // finalize build-time insertions before use
		sw.leafIdx = -1
		for _, l := range sw.egress {
			switch to := l.To().(type) {
			case *Switch:
				if l.Up() {
					r.deg[2*sw.id]++
					r.deg[2*to.id+1]++
					nEdges++
				}
			case *Host:
				if sw.leafIdx < 0 {
					sw.leafIdx = int32(len(r.leaves))
					r.leaves = append(r.leaves, sw)
				}
			}
		}
	}
	r.adj = slices.Grow(r.adj[:0], nNodes)[:nNodes]
	r.radj = slices.Grow(r.radj[:0], nNodes)[:nNodes]
	r.edges = slices.Grow(r.edges[:0], nEdges)[:nEdges]
	r.preds = slices.Grow(r.preds[:0], nEdges)[:nEdges]
	out, in := 0, 0
	for i := range r.adj {
		o, n := out+int(r.deg[2*i]), in+int(r.deg[2*i+1])
		r.adj[i], r.radj[i] = r.edges[out:out:o], r.preds[in:in:n]
		out, in = o, n
	}
	for _, sw := range t.switches {
		for _, l := range sw.egress {
			if to, ok := l.To().(*Switch); ok && l.Up() {
				r.adj[sw.id] = append(r.adj[sw.id], routeEdge{l, to.id})
				r.radj[to.id] = append(r.radj[to.id], sw.id)
			}
		}
	}
	t.hostLeaf = slices.Grow(t.hostLeaf[:0], len(t.hosts))[:len(t.hosts)]
	for i, h := range t.hosts {
		t.hostLeaf[i] = -1
		if h.down[0].Up() {
			t.hostLeaf[i] = h.uplink.To().(*Switch).leafIdx
		}
	}
	nl := len(r.leaves)
	r.routes = slices.Grow(r.routes[:0], len(t.switches)*nl)[:len(t.switches)*nl]
	clear(r.routes)
	for i, sw := range t.switches {
		sw.routes = r.routes[i*nl : (i+1)*nl : (i+1)*nl]
	}

	// Every set is a full-slice-expression window (len == cap) of hops, so
	// no holder can append into a neighbour's set. Per leaf there is at most
	// one candidate per edge, so hops never regrows under a set.
	r.hops = slices.Grow(r.hops[:0], len(r.leaves)*nEdges)
	r.dist = slices.Grow(r.dist[:0], nNodes)[:nNodes] // 1 + hops to the leaf; 0 = unreached
	clear(r.dist)
	r.queue = slices.Grow(r.queue[:0], nNodes)
	for li, leaf := range r.leaves {
		for _, n := range r.queue { // the previous BFS reached only these
			r.dist[n] = 0
		}
		r.dist[leaf.id] = 1
		r.queue = append(r.queue[:0], leaf.id)
		for head := 0; head < len(r.queue); head++ {
			n := r.queue[head]
			for _, prev := range r.radj[n] {
				if r.dist[prev] == 0 {
					r.dist[prev] = r.dist[n] + 1
					r.queue = append(r.queue, prev)
				}
			}
		}
		for _, sw := range t.switches {
			if d := r.dist[sw.id]; d > 1 {
				start := len(r.hops)
				for _, e := range r.adj[sw.id] {
					if r.dist[e.to] == d-1 {
						r.hops = append(r.hops, e.link)
					}
				}
				sw.routes[li] = r.hops[start:len(r.hops):len(r.hops)]
			}
		}
	}
}

// routeScratch is ComputeRoutes' working memory.
type routeScratch struct {
	deg    []int32 // each node's out- and in-degree in the switch graph
	adj    [][]routeEdge
	radj   [][]packet.NodeID
	edges  []routeEdge     // the backing array of every adj list
	preds  []packet.NodeID // the backing array of every radj list
	leaves []*Switch
	routes [][]*Link // the backing array of every switch's routes
	hops   []*Link   // the backing array of every next-hop set
	dist   []int32
	queue  []packet.NodeID
}

type routeEdge struct {
	link *Link
	to   packet.NodeID
}

// LeafSpineConfig parameterizes the 2-tier Clos used throughout the paper's
// evaluation (Fig. 4a): two leaves, two spines, two 40G trunks per
// leaf–spine pair, 16 hosts per leaf at 10G.
type LeafSpineConfig struct {
	Leaves        int
	Spines        int
	TrunksPerPair int // parallel links between each leaf-spine pair
	HostsPerLeaf  int
	HostRateBps   int64
	TrunkRateBps  int64
	LinkDelay     sim.Time // per-hop propagation delay (edge: host<->leaf)
	// TrunkDelay is the per-hop propagation delay of the leaf<->spine tier;
	// zero means LinkDelay (the paper's single-delay fabric). Scenario specs
	// use it for per-tier latency asymmetry.
	TrunkDelay sim.Time
	QueueCap   int
	ECNK       int // switch ECN marking threshold (packets)
}

// trunkDelay resolves the fabric-tier delay default.
func (cfg LeafSpineConfig) trunkDelay() sim.Time {
	if cfg.TrunkDelay > 0 {
		return cfg.TrunkDelay
	}
	return cfg.LinkDelay
}

// BaseRTT estimates the unloaded round-trip time between hosts on different
// leaves: 4 hops each way plus negligible serialization.
func (cfg LeafSpineConfig) BaseRTT() sim.Time {
	// host->leaf->spine->leaf->host and back: 4 edge + 4 fabric propagation
	// delays, plus 8 serializations of an MTU packet (dominated by host
	// links).
	prop := 4*cfg.LinkDelay + 4*cfg.trunkDelay()
	ser := 4*sim.TransmissionTime(packet.MTU+packet.EncapHeaderLen, cfg.HostRateBps) +
		4*sim.TransmissionTime(packet.MTU+packet.EncapHeaderLen, cfg.TrunkRateBps)
	return prop + ser
}

// BisectionBps returns the full inter-leaf bisection bandwidth with all
// links up (paper: 160 Gbps).
func (cfg LeafSpineConfig) BisectionBps() int64 {
	return int64(cfg.Spines*cfg.TrunksPerPair) * cfg.TrunkRateBps
}

// PaperTestbed returns the evaluation topology of Sec. 5 at the given rate
// scale: scale=1.0 is the paper's 10G/40G testbed. Smaller scales keep the
// ratios (bisection = 4 trunks, non-oversubscribed) while making packet-level
// simulation cheap.
func PaperTestbed(scale float64) LeafSpineConfig {
	return LeafSpineConfig{
		Leaves:        2,
		Spines:        2,
		TrunksPerPair: 2,
		HostsPerLeaf:  16,
		HostRateBps:   int64(10e9 * scale),
		TrunkRateBps:  int64(40e9 * scale),
		LinkDelay:     5 * sim.Microsecond,
		QueueCap:      DefaultQueueCap,
		ECNK:          20, // DCTCP-style threshold used by Clove-ECN (Sec. 3.2)
	}
}

// ScaledTestbed returns the paper topology shrunk along two axes while
// preserving its defining ratio — hosts per leaf × host rate = bisection
// bandwidth (no oversubscription) — so the fabric, not the access links,
// stays the contention point. scale multiplies link rates; hostsPerLeaf
// shrinks the host count (paper: 16).
func ScaledTestbed(scale float64, hostsPerLeaf int) LeafSpineConfig {
	cfg := PaperTestbed(scale)
	cfg.HostsPerLeaf = hostsPerLeaf
	// 4 trunks total between the leaf pair: trunk rate = hosts*hostRate/4.
	cfg.TrunkRateBps = int64(hostsPerLeaf) * cfg.HostRateBps /
		int64(cfg.Spines*cfg.TrunksPerPair)
	return cfg
}

// LeafSpine holds the constructed fabric plus name indexes.
type LeafSpine struct {
	*Topology
	Cfg    LeafSpineConfig
	Leaves []*Switch
	Spines []*Switch
}

// BuildLeafSpine constructs the topology on s and computes initial routes.
// Node creation order fixes IDs, names and ECMP hash seeds: leaves (L1, L2,
// ...), spines (S1, ...), then each leaf's hosts (h0, h1, ...); links are
// numbered in the order they are made: every leaf's trunks to every spine,
// then each host's uplink and downlink.
//
// The builder knows its counts, so switches, hosts, links, the links'
// initial rings and the switches' egress sets each come from one slab sized
// exactly, and the names of each kind of node share one string: a build
// allocates per kind of object, not per link or host (TestBuildAllocsFlat).
func BuildLeafSpine(s *sim.Simulator, cfg LeafSpineConfig) *LeafSpine {
	t := NewTopology(s)
	ls := &LeafSpine{Topology: t, Cfg: cfg}
	trunkCfg := LinkConfig{RateBps: cfg.TrunkRateBps, Delay: cfg.trunkDelay(), QueueCap: cfg.QueueCap, ECNK: cfg.ECNK}
	upCfg := LinkConfig{RateBps: cfg.HostRateBps, Delay: cfg.LinkDelay, QueueCap: HostQdiscCap}
	downCfg := LinkConfig{RateBps: cfg.HostRateBps, Delay: cfg.LinkDelay, QueueCap: cfg.QueueCap, ECNK: cfg.ECNK}
	leaves, spines := max(cfg.Leaves, 0), max(cfg.Spines, 0)
	trunksPer, hostsPer := max(cfg.TrunksPerPair, 0), max(cfg.HostsPerLeaf, 0)
	pairs, hosts := leaves*spines*trunksPer, leaves*hostsPer // trunk link pairs, hosts
	t.reserve(leaves+spines, hosts, 2*pairs+2*hosts,
		2*pairs*trunkCfg.ringSlots()+hosts*(upCfg.ringSlots()+downCfg.ringSlots()),
		2*pairs+hosts)
	ls.Leaves = make([]*Switch, 0, leaves)
	for _, name := range seqNames("L", 1, leaves) {
		ls.Leaves = append(ls.Leaves, t.addSwitch(name, spines*trunksPer+hostsPer))
	}
	ls.Spines = make([]*Switch, 0, spines)
	for _, name := range seqNames("S", 1, spines) {
		ls.Spines = append(ls.Spines, t.addSwitch(name, leaves*trunksPer))
	}
	for _, lf := range ls.Leaves {
		for _, sp := range ls.Spines {
			for k := 0; k < trunksPer; k++ {
				t.Connect(lf, sp, k, trunkCfg)
			}
		}
	}
	names := seqNames("h", 0, hosts)
	for li, lf := range ls.Leaves {
		for j := 0; j < hostsPer; j++ {
			t.AddHost(names[li*hostsPer+j], lf, upCfg, downCfg)
		}
	}
	t.ComputeRoutes()
	return ls
}

// seqNames returns the n names prefix+strconv.Itoa(first+i), backed by one
// string.
func seqNames(prefix string, first, n int) []string {
	var num [20]byte
	digits := func(i int) int { return len(strconv.AppendInt(num[:0], int64(i), 10)) }
	var b strings.Builder
	b.Grow(n * (len(prefix) + digits(first+n)))
	for i := first; i < first+n; i++ {
		b.WriteString(prefix)
		b.Write(strconv.AppendInt(num[:0], int64(i), 10))
	}
	all := b.String()
	names := make([]string, n)
	for i := range names {
		end := len(prefix) + digits(first+i)
		names[i], all = all[:end], all[end:]
	}
	return names
}

// FailPaperLink takes down one trunk between S2 and L2, the asymmetry used
// in Sec. 5.2 and 6.2 (drops cross-leaf bandwidth by 25%).
func (ls *LeafSpine) FailPaperLink() {
	ls.SetLinkPairUp("L2", "S2", 0, false)
}
