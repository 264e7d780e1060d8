package discovery

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"clove/internal/clove"
	"clove/internal/netem"
	"clove/internal/packet"
	"clove/internal/sim"
	"clove/internal/vswitch"
)

// testFabric builds a scaled paper testbed with Clove-ECN vswitches.
func testFabric(seed int64) (*sim.Simulator, *netem.LeafSpine, []*vswitch.VSwitch) {
	s := sim.New(seed)
	ls := netem.BuildLeafSpine(s, netem.PaperTestbed(0.01))
	rtt := ls.Cfg.BaseRTT()
	var vsws []*vswitch.VSwitch
	for _, h := range ls.Hosts() {
		pol := vswitch.NewCloveECN(clove.DefaultWeightTableConfig(rtt))
		vsws = append(vsws, vswitch.New(s, h, vswitch.DefaultConfig(rtt), pol))
	}
	return s, ls, vsws
}

func TestDiscoverFindsFourDisjointPaths(t *testing.T) {
	s, ls, vsws := testFabric(1)
	cfg := DefaultConfig(ls.Cfg.BaseRTT())
	p := NewProber(s, vsws[0], cfg)
	var gotPorts []uint16
	var gotPaths []Path
	p.OnPaths = func(dst packet.HostID, ports []uint16, paths []Path) {
		gotPorts, gotPaths = ports, paths
	}
	p.Discover(16)
	s.RunUntil(sim.Second)

	if len(gotPorts) != 4 {
		t.Fatalf("selected %d ports, want 4 (stats %+v)", len(gotPorts), p.Stats())
	}
	// Paths must be link-disjoint on the fabric hops; every path to the
	// same host necessarily shares the final leaf->host downlink.
	used := map[packet.LinkID]bool{}
	for _, path := range gotPaths {
		if path.Hops != 3 {
			t.Errorf("path hops = %d, want 3", path.Hops)
		}
		if len(path.Links) != 3 {
			t.Errorf("path links = %d, want 3 (leaf, spine, dst-leaf egress)", len(path.Links))
		}
		for _, l := range path.Links[:len(path.Links)-1] {
			if used[l] {
				t.Errorf("fabric link %d shared between selected paths", l)
			}
			used[l] = true
		}
	}
	// The four first-hop links must be the four L1 uplinks.
	firstHops := map[packet.LinkID]bool{}
	for _, path := range gotPaths {
		firstHops[path.Links[0]] = true
	}
	if len(firstHops) != 4 {
		t.Errorf("first hops = %d distinct, want 4", len(firstHops))
	}
	// The policy received the ports.
	pol := vsws[0].Policy().(*vswitch.CloveECN)
	if pol.Table(16) == nil || pol.Table(16).Len() != 4 {
		t.Error("policy table not installed")
	}
}

func TestDiscoverAfterFailureFindsMergedPaths(t *testing.T) {
	s, ls, vsws := testFabric(2)
	cfg := DefaultConfig(ls.Cfg.BaseRTT())
	p := NewProber(s, vsws[0], cfg)
	var lastPaths []Path
	p.OnPaths = func(_ packet.HostID, _ []uint16, paths []Path) { lastPaths = paths }

	ls.FailPaperLink() // S2->L2 trunk 0 down
	p.Discover(16)
	s.RunUntil(sim.Second)

	if len(lastPaths) == 0 {
		t.Fatal("no paths after failure")
	}
	// With the failure, S2 has one remaining trunk to L2: the two L1->S2
	// uplinks now converge on it. Distinct full paths: 2 via S1 + 2 via S2
	// sharing the last link = 4 selected ports but only 3 disjoint link
	// sets at the spine->leaf stage. Verify selection still spans all 4
	// L1 uplinks (maximal spreading at the first hop).
	firstHops := map[packet.LinkID]bool{}
	for _, path := range lastPaths {
		firstHops[path.Links[0]] = true
	}
	if len(firstHops) < 3 {
		t.Errorf("selection collapsed to %d first hops after failure", len(firstHops))
	}
}

func TestPeriodicRediscoveryAdaptsToTopologyChange(t *testing.T) {
	s, ls, vsws := testFabric(3)
	cfg := DefaultConfig(ls.Cfg.BaseRTT())
	cfg.Interval = 50 * sim.Millisecond
	p := NewProber(s, vsws[0], cfg)
	updates := 0
	p.OnPaths = func(packet.HostID, []uint16, []Path) { updates++ }
	p.Start([]packet.HostID{16})
	s.At(120*sim.Millisecond, ls.FailPaperLink)
	s.RunUntil(400 * sim.Millisecond)
	p.Stop()
	if updates < 4 {
		t.Errorf("updates = %d, want multiple periodic rounds", updates)
	}
	if p.Stats().Rounds < 4 {
		t.Errorf("rounds = %d", p.Stats().Rounds)
	}
	// After Stop, no more rounds fire.
	before := p.Stats().Rounds
	s.RunUntil(s.Now() + 500*sim.Millisecond)
	if p.Stats().Rounds != before {
		t.Error("prober kept probing after Stop")
	}
}

func TestAssemblePathIncomplete(t *testing.T) {
	// Missing hop 2: incomplete.
	hops := map[int]packet.LinkID{
		1: 5,
		3: -1,
	}
	if _, ok := assemblePath(100, hops); ok {
		t.Error("path with missing hop assembled")
	}
	if _, ok := assemblePath(100, nil); ok {
		t.Error("empty echo set assembled")
	}
}

func TestSelectDisjointPrefersNonOverlapping(t *testing.T) {
	paths := []Path{
		{Port: 1, Links: []packet.LinkID{10, 20}},
		{Port: 2, Links: []packet.LinkID{10, 21}}, // shares 10 with port 1
		{Port: 3, Links: []packet.LinkID{11, 22}}, // disjoint
		{Port: 4, Links: []packet.LinkID{12, 23}}, // disjoint
	}
	sel := SelectDisjoint(paths, 3)
	if len(sel) != 3 {
		t.Fatalf("selected %d", len(sel))
	}
	ports := map[uint16]bool{}
	for _, s := range sel {
		ports[s.Port] = true
	}
	if !ports[1] || !ports[3] || !ports[4] {
		t.Errorf("greedy picked %v, want {1,3,4}", ports)
	}
}

func TestSelectDisjointSkipsDuplicates(t *testing.T) {
	paths := []Path{
		{Port: 1, Links: []packet.LinkID{10, 20}},
		{Port: 2, Links: []packet.LinkID{10, 20}}, // duplicate of 1
		{Port: 3, Links: []packet.LinkID{11, 21}},
	}
	sel := SelectDisjoint(paths, 2)
	if len(sel) != 2 {
		t.Fatalf("selected %d", len(sel))
	}
	if sel[0].Port == 2 || sel[1].Port == 2 {
		t.Error("duplicate path selected over distinct one")
	}
}

func TestSelectDisjointFallsBackToDuplicates(t *testing.T) {
	// Only one distinct path exists; k=3 should still return the
	// duplicates rather than fewer paths than available.
	paths := []Path{
		{Port: 1, Links: []packet.LinkID{10}},
		{Port: 2, Links: []packet.LinkID{10}},
		{Port: 3, Links: []packet.LinkID{10}},
	}
	sel := SelectDisjoint(paths, 3)
	if len(sel) != 3 {
		t.Errorf("selected %d, want all 3 duplicates when nothing else exists", len(sel))
	}
	if got := SelectDisjoint(nil, 4); got != nil {
		t.Error("empty input")
	}
}

// selectDisjointRef is SelectDisjoint as first written — a used-link map and
// a shrinking copy of the candidates — kept as the reference the current
// implementation must match pick for pick.
func selectDisjointRef(paths []Path, k int) []Path {
	if len(paths) == 0 || k <= 0 {
		return nil
	}
	// Stable ordering for determinism.
	sort.Slice(paths, func(i, j int) bool { return paths[i].Port < paths[j].Port })

	selected := []Path{paths[0]}
	used := map[packet.LinkID]int{}
	for _, l := range paths[0].Links {
		used[l]++
	}
	remaining := append([]Path(nil), paths[1:]...)

	for len(selected) < k && len(remaining) > 0 {
		bestIdx, bestOverlap := -1, 1<<30
		for i, cand := range remaining {
			overlap := 0
			for _, l := range cand.Links {
				if used[l] > 0 {
					overlap++
				}
			}
			if overlap < bestOverlap {
				bestIdx, bestOverlap = i, overlap
			}
		}
		if bestIdx < 0 {
			break
		}
		pick := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		// Skip exact duplicates of already-selected paths unless nothing
		// else remains (k distinct paths may simply not exist).
		if bestOverlap == len(pick.Links) && isDuplicateRef(selected, pick) && hasNonDuplicateRef(remaining, selected) {
			continue
		}
		selected = append(selected, pick)
		for _, l := range pick.Links {
			used[l]++
		}
	}
	return selected
}

func isDuplicateRef(selected []Path, cand Path) bool {
	for _, s := range selected {
		if slices.Equal(s.Links, cand.Links) {
			return true
		}
	}
	return false
}

func hasNonDuplicateRef(remaining, selected []Path) bool {
	for _, r := range remaining {
		if !isDuplicateRef(selected, r) {
			return true
		}
	}
	return false
}

// randomCandidates draws n candidates with unique ports, each 1–6 links from
// an alphabet of 8, so shared links, full overlaps and exact duplicates are
// all common. Half the sets come sorted by port, as the cluster's
// routing-table walk emits them; the rest are shuffled.
func randomCandidates(rng *rand.Rand, n int) []Path {
	paths := make([]Path, n)
	for i, bucket := range rng.Perm(256)[:n] {
		port := 256*bucket + rng.Intn(256)
		links := make([]packet.LinkID, 1+rng.Intn(6))
		for j := range links {
			links[j] = packet.LinkID(rng.Intn(8))
		}
		paths[i] = Path{Port: uint16(port), Links: links, Hops: len(links)}
	}
	if rng.Intn(2) == 0 {
		sort.Slice(paths, func(i, j int) bool { return paths[i].Port < paths[j].Port })
	}
	return paths
}

// TestSelectDisjointMatchesReference: on random candidate sets SelectDisjoint
// returns exactly the reference's picks, in order, and leaves its argument
// in the same (port) order.
func TestSelectDisjointMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10000; trial++ {
		paths := randomCandidates(rng, rng.Intn(101))
		k := rng.Intn(7)
		ref := slices.Clone(paths)
		want := selectDisjointRef(ref, k)
		got := SelectDisjoint(paths, k)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(paths, ref) {
			t.Fatalf("trial %d (%d candidates, k=%d): picked %v, reference %v", trial, len(paths), k, got, want)
		}
	}
}

// fatTreeCandidates is what the cluster's routing-table walk hands
// SelectDisjoint for one pair on a k=16 fat-tree: 64 port-sorted candidates
// of five switch egress links out of a fabric of ≈12k, the first and last
// hop fixed, each middle hop one of eight links.
func fatTreeCandidates() []Path {
	rng := rand.New(rand.NewSource(1))
	var hops [5][8]packet.LinkID
	for h := range hops {
		for j := range hops[h] {
			hops[h][j] = packet.LinkID(rng.Intn(12288))
		}
	}
	paths := make([]Path, 64)
	for i := range paths {
		links := []packet.LinkID{hops[0][0], hops[1][rng.Intn(8)], hops[2][rng.Intn(8)], hops[3][rng.Intn(8)], hops[4][0]}
		paths[i] = Path{Port: uint16(33000 + 97*i), Links: links, Hops: len(links)}
	}
	return paths
}

// TestSelectDisjointAllocs: on port-sorted input SelectDisjoint allocates
// the result and nothing else.
func TestSelectDisjointAllocs(t *testing.T) {
	paths := fatTreeCandidates()
	if allocs := testing.AllocsPerRun(100, func() { SelectDisjoint(paths, 4) }); allocs > 1 {
		t.Fatalf("SelectDisjoint of 64 candidates: %v allocations, want at most 1 (the result)", allocs)
	}
}

var selectSink []Path

// BenchmarkSelectDisjoint64 measures one pair's path selection on the k=16
// fat-tree shape: 64 port-sorted candidates, k = 4.
func BenchmarkSelectDisjoint64(b *testing.B) {
	paths := fatTreeCandidates()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		selectSink = SelectDisjoint(paths, 4)
	}
}
