package netem

import (
	"fmt"

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
	byName   map[string]*Link // "A->B#k"
	nextNode packet.NodeID
	nextLink packet.LinkID

	// RouteRecomputeDelay models routing-protocol reconvergence after a
	// topology change: route tables update this long after SetLinkPairUp.
	// Zero means instantaneous.
	RouteRecomputeDelay sim.Time
}

// NewTopology creates an empty fabric bound to s, with a fresh packet pool.
func NewTopology(s *sim.Simulator) *Topology {
	return &Topology{Sim: s, pool: &packet.Pool{}, byName: map[string]*Link{}}
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

// LinkByName returns the link named "From->To#k", or nil.
func (t *Topology) LinkByName(name string) *Link { return t.byName[name] }

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
func (t *Topology) AddSwitch(name string) *Switch {
	sw := &Switch{
		id:   t.nextNode,
		name: name,
		sim:  t.Sim,
		pool: t.pool,
		seed: 0x9e3779b97f4a7c15 * uint64(t.nextNode+1),
		topo: t,
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
	h := &Host{id: t.nextNode, hostID: packet.HostID(len(t.hosts)), name: name, pool: t.pool}
	t.nextNode++
	up := t.addLink(fmt.Sprintf("%s->%s#0", name, leaf.name), h.id, leaf, upCfg)
	down := t.addLink(fmt.Sprintf("%s->%s#0", leaf.name, name), leaf.id, h, downCfg)
	h.uplink = up
	leaf.addEgress(down)
	t.hosts = append(t.hosts, h)
	return h
}

// HostQdiscCap is the depth of a host's transmit queue (Linux txqueuelen
// order of magnitude), much deeper than a switch port.
const HostQdiscCap = 1024

// Connect creates the k-th bidirectional link pair between two switches.
func (t *Topology) Connect(a, b *Switch, trunk int, cfg LinkConfig) {
	ab := t.addLink(fmt.Sprintf("%s->%s#%d", a.name, b.name, trunk), a.id, b, cfg)
	ba := t.addLink(fmt.Sprintf("%s->%s#%d", b.name, a.name, trunk), b.id, a, cfg)
	a.addEgress(ab)
	b.addEgress(ba)
}

func (t *Topology) addLink(name string, from packet.NodeID, to Node, cfg LinkConfig) *Link {
	l := newLink(t.Sim, t.pool, t.nextLink, name, from, to, cfg)
	t.nextLink++
	t.links = append(t.links, l)
	t.byName[name] = l
	return l
}

// SetLinkPairUp changes the state of both directions of the trunk-th link
// pair between switches named a and b, then recomputes routing (after
// RouteRecomputeDelay if configured). It panics if the pair does not exist:
// failing a nonexistent link is always a test-configuration bug.
func (t *Topology) SetLinkPairUp(a, b string, trunk int, up bool) {
	n1 := fmt.Sprintf("%s->%s#%d", a, b, trunk)
	n2 := fmt.Sprintf("%s->%s#%d", b, a, trunk)
	l1, l2 := t.byName[n1], t.byName[n2]
	if l1 == nil || l2 == nil {
		panic(fmt.Sprintf("netem: no link pair %s / %s", n1, n2))
	}
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
		if l.from == sw.id || l.to.ID() == sw.id {
			l.SetUp(up)
		}
	}
	t.scheduleRecompute()
}

// SetLinkPairRate changes the rate of both directions of the trunk-th link
// pair between switches named a and b (scenario speed downgrades). It panics
// if the pair does not exist.
func (t *Topology) SetLinkPairRate(a, b string, trunk int, rateBps int64) {
	n1 := fmt.Sprintf("%s->%s#%d", a, b, trunk)
	n2 := fmt.Sprintf("%s->%s#%d", b, a, trunk)
	l1, l2 := t.byName[n1], t.byName[n2]
	if l1 == nil || l2 == nil {
		panic(fmt.Sprintf("netem: no link pair %s / %s", n1, n2))
	}
	l1.SetRateBps(rateBps)
	l2.SetRateBps(rateBps)
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
// per leaf over the switch graph, and each per-leaf set is built once and
// shared, read-only, by all of the leaf's hosts — the same sets, in the same
// egress order, as a BFS per host (TestComputeRoutesMatchesPerHostReference),
// for a cost that does not grow with the host count. Route recomputation
// runs in-simulation on every link flap of a failure storm.
func (t *Topology) ComputeRoutes() {
	for _, sw := range t.switches {
		if cap(sw.routes) >= len(t.hosts) {
			sw.routes = sw.routes[:len(t.hosts)]
			clear(sw.routes)
		} else {
			sw.routes = make([][]*Link, len(t.hosts))
		}
	}
	// The switch graph, flat arrays indexed by the dense NodeIDs: each
	// switch's up egress links toward switches in ID order (the ECMP
	// candidate order), and their reverse edges for the BFS.
	type edge struct {
		link *Link
		to   packet.NodeID
	}
	nNodes := int(t.nextNode)
	adj := make([][]edge, nNodes)
	radj := make([][]packet.NodeID, nNodes)
	var leaves []*Switch
	nEdges := 0
	for _, sw := range t.switches {
		sw.sortEgress() // finalize build-time insertions before use
		leaf := false
		for _, l := range sw.egress {
			switch to := l.To().(type) {
			case *Switch:
				if l.Up() {
					adj[sw.id] = append(adj[sw.id], edge{l, to.id})
					radj[to.id] = append(radj[to.id], sw.id)
					nEdges++
				}
			case *Host:
				leaf = true
			}
		}
		if leaf {
			leaves = append(leaves, sw)
		}
	}

	// Every set is a full-slice-expression window (len == cap) of hops, so
	// no holder can append into a neighbour's set. Per leaf there is at most
	// one candidate per edge, plus one downlink per host.
	hops := make([]*Link, 0, len(leaves)*nEdges+len(t.hosts))
	sets := make([][]*Link, len(t.switches)) // per switch, toward the current leaf
	dist := make([]int32, nNodes)            // hops to the leaf; -1 = unreached
	queue := make([]packet.NodeID, 0, len(t.switches))
	for _, leaf := range leaves {
		for i := range dist {
			dist[i] = -1
		}
		dist[leaf.id] = 0
		queue = append(queue[:0], leaf.id)
		for head := 0; head < len(queue); head++ {
			n := queue[head]
			for _, prev := range radj[n] {
				if dist[prev] < 0 {
					dist[prev] = dist[n] + 1
					queue = append(queue, prev)
				}
			}
		}
		for i, sw := range t.switches {
			sets[i] = nil
			if d := dist[sw.id]; d > 0 {
				start := len(hops)
				for _, e := range adj[sw.id] {
					if dist[e.to] == d-1 {
						hops = append(hops, e.link)
					}
				}
				sets[i] = hops[start:len(hops):len(hops)]
			}
		}
		for _, down := range leaf.egress {
			h, ok := down.To().(*Host)
			if !ok || !down.Up() {
				continue
			}
			hops = append(hops, down)
			leaf.routes[h.hostID] = hops[len(hops)-1 : len(hops) : len(hops)]
			for i, sw := range t.switches {
				if sets[i] != nil {
					sw.routes[h.hostID] = sets[i]
				}
			}
		}
	}
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
// Node creation order fixes IDs, names and ECMP hash seeds: leaves, spines,
// then each leaf's hosts.
func BuildLeafSpine(s *sim.Simulator, cfg LeafSpineConfig) *LeafSpine {
	t := NewTopology(s)
	ls := &LeafSpine{Topology: t, Cfg: cfg}
	for i := 0; i < cfg.Leaves; i++ {
		ls.Leaves = append(ls.Leaves, t.AddSwitch(fmt.Sprintf("L%d", i+1)))
	}
	for i := 0; i < cfg.Spines; i++ {
		ls.Spines = append(ls.Spines, t.AddSwitch(fmt.Sprintf("S%d", i+1)))
	}
	trunkCfg := LinkConfig{RateBps: cfg.TrunkRateBps, Delay: cfg.trunkDelay(), QueueCap: cfg.QueueCap, ECNK: cfg.ECNK}
	for _, lf := range ls.Leaves {
		for _, sp := range ls.Spines {
			for k := 0; k < cfg.TrunksPerPair; k++ {
				t.Connect(lf, sp, k, trunkCfg)
			}
		}
	}
	upCfg := LinkConfig{RateBps: cfg.HostRateBps, Delay: cfg.LinkDelay, QueueCap: HostQdiscCap}
	downCfg := LinkConfig{RateBps: cfg.HostRateBps, Delay: cfg.LinkDelay, QueueCap: cfg.QueueCap, ECNK: cfg.ECNK}
	for li, lf := range ls.Leaves {
		for j := 0; j < cfg.HostsPerLeaf; j++ {
			t.AddHost(fmt.Sprintf("h%d", li*cfg.HostsPerLeaf+j), lf, upCfg, downCfg)
		}
	}
	t.ComputeRoutes()
	return ls
}

// FailPaperLink takes down one trunk between S2 and L2, the asymmetry used
// in Sec. 5.2 and 6.2 (drops cross-leaf bandwidth by 25%).
func (ls *LeafSpine) FailPaperLink() {
	ls.SetLinkPairUp("L2", "S2", 0, false)
}
