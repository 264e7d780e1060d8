package netem

import (
	"slices"
	"testing"
	"unsafe"

	"clove/internal/packet"
	"clove/internal/sim"
)

// referenceRoutes is ComputeRoutes as it stood before the per-leaf BFS: one
// reverse BFS per destination host over every node, hosts included, with the
// candidate filter dist(next) == dist(sw)-1 over the switch's up egress links
// in ID order. It returns routes[switch index][host] and touches no switch.
func referenceRoutes(t *Topology) [][][]*Link {
	type edge struct {
		link *Link
		to   packet.NodeID
	}
	nNodes := int(t.nextNode)
	adj := make([][]edge, nNodes)
	for _, sw := range t.switches {
		sw.sortEgress()
		for _, l := range sw.egress {
			if l.Up() {
				adj[sw.id] = append(adj[sw.id], edge{l, l.To().ID()})
			}
		}
	}
	for _, h := range t.hosts {
		if h.uplink.Up() {
			adj[h.id] = append(adj[h.id], edge{h.uplink, h.uplink.To().ID()})
		}
	}
	radj := make([][]packet.NodeID, nNodes)
	for from, edges := range adj {
		for _, e := range edges {
			radj[e.to] = append(radj[e.to], packet.NodeID(from))
		}
	}
	routes := make([][][]*Link, len(t.switches))
	for i := range routes {
		routes[i] = make([][]*Link, len(t.hosts))
	}
	dist := make([]int32, nNodes)
	var queue []packet.NodeID
	for _, h := range t.hosts {
		for i := range dist {
			dist[i] = -1
		}
		dist[h.id] = 0
		queue = append(queue[:0], h.id)
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
			d := dist[sw.id]
			if d < 0 {
				continue
			}
			for _, e := range adj[sw.id] {
				if dd := dist[e.to]; dd >= 0 && dd == d-1 {
					routes[i][h.hostID] = append(routes[i][h.hostID], e.link)
				}
			}
		}
	}
	return routes
}

// checkRoutesMatchReference asserts that every switch's installed next-hop
// set toward every host is the reference's, link for link and in order, and
// nil exactly where the reference has none.
func checkRoutesMatchReference(t *testing.T, name string, topo *Topology) {
	t.Helper()
	checkRoutes(t, name, topo, referenceRoutes(topo))
}

// checkRoutes is checkRoutesMatchReference against a reference taken earlier.
func checkRoutes(t *testing.T, name string, topo *Topology, ref [][][]*Link) {
	t.Helper()
	bad := 0
	for i, sw := range topo.switches {
		for _, h := range topo.hosts {
			got, want := sw.NextHops(h.hostID), ref[i][h.hostID]
			if !slices.Equal(got, want) || (got == nil) != (want == nil) {
				if bad++; bad <= 5 {
					t.Errorf("%s: %s -> %s: next-hops %v, reference %v", name, sw.name, h.name, got, want)
				}
			}
			// Sets are shared across a leaf's hosts: an append must copy.
			if len(got) != cap(got) {
				t.Fatalf("%s: %s -> %s: next-hop set has len %d, cap %d", name, sw.name, h.name, len(got), cap(got))
			}
		}
	}
	if bad > 5 {
		t.Errorf("%s: %d (switch, host) pairs differ in all", name, bad)
	}
}

// k16Fabric is the full-scale fat-tree-k16-mixed fabric: 64 leaves, 8
// spines, one trunk per pair, hostsPerLeaf hosts per leaf.
func k16Fabric(hostsPerLeaf int) *LeafSpine {
	cfg := PaperTestbed(1)
	cfg.Leaves, cfg.Spines, cfg.TrunksPerPair, cfg.HostsPerLeaf = 64, 8, 1, hostsPerLeaf
	return BuildLeafSpine(sim.New(1), cfg)
}

// TestComputeRoutesMatchesPerHostReference pins ComputeRoutes to the per-host
// BFS it replaced, on every fabric shape and failure kind the simulator uses.
func TestComputeRoutesMatchesPerHostReference(t *testing.T) {
	paper := BuildLeafSpine(sim.New(1), PaperTestbed(1))
	checkRoutesMatchReference(t, "paper testbed", paper.Topology)
	paper.FailPaperLink()
	checkRoutesMatchReference(t, "paper testbed, FailPaperLink", paper.Topology)

	k16 := k16Fabric(16)
	checkRoutesMatchReference(t, "k16", k16.Topology)
	storm := [][2]string{{"L1", "S1"}, {"L2", "S2"}, {"L3", "S3"}, {"L4", "S4"}}
	for _, p := range storm {
		k16.SetLinkPairUp(p[0], p[1], 0, false)
	}
	checkRoutesMatchReference(t, "k16, storm trunks down", k16.Topology)
	for _, p := range storm {
		k16.SetLinkPairUp(p[0], p[1], 0, true)
	}
	checkRoutesMatchReference(t, "k16, storm trunks back up", k16.Topology)
	k16.SetSwitchUp("S3", false)
	checkRoutesMatchReference(t, "k16, S3 down", k16.Topology)
	k16.SetSwitchUp("S3", true)
	checkRoutesMatchReference(t, "k16, S3 back up", k16.Topology)

	// Under RouteRecomputeDelay the old routes stay installed until the
	// delayed recompute runs, then the new ones replace them.
	k16.RouteRecomputeDelay = 100 * sim.Microsecond
	before := referenceRoutes(k16.Topology)
	k16.SetLinkPairUp("L5", "S5", 0, false)
	checkRoutes(t, "k16, L5-S5 down, before reconvergence", k16.Topology, before)
	k16.Sim.RunUntil(k16.RouteRecomputeDelay)
	checkRoutesMatchReference(t, "k16, L5-S5 down, reconverged", k16.Topology)

	// A host whose leaf downlink is down is unreachable from every switch,
	// while its leaf-mates keep their routes.
	down := BuildLeafSpine(sim.New(1), PaperTestbed(1))
	down.LinkByName("L2->h17#0").SetUp(false)
	down.ComputeRoutes()
	checkRoutesMatchReference(t, "one host downlink down", down.Topology)
	if nh := down.Spines[0].NextHops(17); nh != nil {
		t.Errorf("S1 still routes to h17 over a dead downlink: %v", nh)
	}
	down.LinkByName("L2->h17#0").SetUp(true)
	down.ComputeRoutes()
	checkRoutesMatchReference(t, "host downlink back up", down.Topology)

	// A switch added after a recompute routes nowhere until the next one,
	// and is not mistaken for the first leaf.
	late := BuildLeafSpine(sim.New(1), PaperTestbed(1))
	x := late.AddSwitch("X")
	late.Connect(x, late.Spines[0], 0, LinkConfig{RateBps: 40e9})
	for _, h := range late.Hosts() {
		if nh := x.NextHops(h.HostID()); nh != nil {
			t.Fatalf("X routes to %s before any recompute: %v", h.Name(), nh)
		}
	}
	late.ComputeRoutes()
	checkRoutesMatchReference(t, "switch added after a recompute", late.Topology)

	spine := BuildLeafSpine(sim.New(1), PaperTestbed(1))
	spine.SetSwitchUp("S1", false)
	checkRoutesMatchReference(t, "S1 down", spine.Topology)

	tt := BuildThreeTier(sim.New(1), DefaultThreeTier())
	checkRoutesMatchReference(t, "three-tier", tt.Topology)
	tt.SetLinkPairUp("P1L1", "P1A1", 0, false)
	checkRoutesMatchReference(t, "three-tier, P1L1-P1A1 down", tt.Topology)
}

// TestComputeRoutesAllocsIndependentOfHosts: ComputeRoutes keeps its
// working memory on the Topology, so a recompute after the first (every
// storm flap) allocates nothing, at 4 hosts per leaf as at 16.
func TestComputeRoutesAllocsIndependentOfHosts(t *testing.T) {
	for _, hostsPerLeaf := range []int{4, 16} {
		ls := k16Fabric(hostsPerLeaf)
		ab, ba := ls.LinkByName("L1->S1#0"), ls.LinkByName("S1->L1#0")
		flap := func() {
			for _, up := range []bool{false, true} {
				ab.SetUp(up)
				ba.SetUp(up)
				ls.ComputeRoutes()
			}
		}
		if allocs := testing.AllocsPerRun(5, flap); allocs != 0 {
			t.Fatalf("%d hosts per leaf: a trunk flap (two recomputes) allocates %v times, want 0", hostsPerLeaf, allocs)
		}
	}
}

// routeStateBytes is the size of every switch's route table and of the
// next-hop sets they point into.
func routeStateBytes(t *Topology) int {
	const header, ptr = int(unsafe.Sizeof([]*Link(nil))), int(unsafe.Sizeof((*Link)(nil)))
	n := cap(t.rs.hops) * ptr
	for _, sw := range t.switches {
		n += cap(sw.routes) * header
	}
	return n
}

// TestRouteStateIndependentOfHosts: switches route by destination leaf, so
// their route state is the same at 4 and at 16 hosts per leaf; what grows
// with the host count is the topology's 4-byte leaf index per host.
func TestRouteStateIndependentOfHosts(t *testing.T) {
	few, many := k16Fabric(4), k16Fabric(16)
	if a, b := routeStateBytes(few.Topology), routeStateBytes(many.Topology); a != b {
		t.Fatalf("route state is %d bytes at 4 hosts per leaf, %d at 16", a, b)
	}
	if got, want := len(many.hostLeaf), len(many.Hosts()); got != want {
		t.Fatalf("leaf index has %d entries for %d hosts", got, want)
	}
}

// BenchmarkComputeRoutesK16 prices one route recomputation on the full-scale
// k16 fabric (64 leaves x 8 spines x 16 hosts) — what every storm flap costs.
// It fails if a recompute after the first allocates; the CI bench-smoke job
// runs it.
func BenchmarkComputeRoutesK16(b *testing.B) {
	ls := k16Fabric(16)
	if allocs := testing.AllocsPerRun(5, ls.ComputeRoutes); allocs != 0 {
		b.Fatalf("allocs per recompute = %v, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ls.ComputeRoutes()
	}
}
