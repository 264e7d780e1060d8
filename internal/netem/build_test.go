package netem

import (
	"fmt"
	"runtime"
	"testing"

	"clove/internal/sim"
)

// builderNames lists the name of every link of a BuildLeafSpine fabric in
// LinkID order, spelled as the builder spelled them when it stored each
// link's name: fmt-formatted node names joined as "From->To#k".
func builderNames(cfg LeafSpineConfig) []string {
	var names []string
	for li := 1; li <= cfg.Leaves; li++ {
		for si := 1; si <= cfg.Spines; si++ {
			for k := 0; k < cfg.TrunksPerPair; k++ {
				names = append(names, fmt.Sprintf("L%d->S%d#%d", li, si, k), fmt.Sprintf("S%d->L%d#%d", si, li, k))
			}
		}
	}
	for li := 1; li <= cfg.Leaves; li++ {
		for j := 0; j < cfg.HostsPerLeaf; j++ {
			h := fmt.Sprintf("h%d", (li-1)*cfg.HostsPerLeaf+j)
			names = append(names, fmt.Sprintf("%s->L%d#0", h, li), fmt.Sprintf("L%d->%s#0", li, h))
		}
	}
	return names
}

// TestLinkNamesMatchBuilder checks, on the paper testbed and the k16 fabric,
// that every link's on-demand name is the one the builder assigns, that
// LinkByName finds every link by it, and that String keeps its text.
func TestLinkNamesMatchBuilder(t *testing.T) {
	paper := BuildLeafSpine(sim.New(1), PaperTestbed(1))
	for _, ls := range []*LeafSpine{paper, k16Fabric(16)} {
		want := builderNames(ls.Cfg)
		links := ls.Links()
		if len(links) != len(want) {
			t.Fatalf("%d links, want %d", len(links), len(want))
		}
		for i, l := range links {
			if got := l.Name(); got != want[i] {
				t.Fatalf("link %d is named %q, want %q", i, got, want[i])
			}
			if got := ls.LinkByName(want[i]); got != l {
				t.Fatalf("LinkByName(%q) = %v, want %v", want[i], got, l)
			}
		}
		for i, h := range ls.Hosts() {
			if want := fmt.Sprintf("h%d", i); h.Name() != want {
				t.Fatalf("host %d is named %q, want %q", i, h.Name(), want)
			}
		}
		for i, sw := range ls.Leaves {
			if want := fmt.Sprintf("L%d", i+1); sw.Name() != want {
				t.Fatalf("leaf %d is named %q, want %q", i, sw.Name(), want)
			}
		}
		for i, sw := range ls.Spines {
			if want := fmt.Sprintf("S%d", i+1); sw.Name() != want {
				t.Fatalf("spine %d is named %q, want %q", i, sw.Name(), want)
			}
		}
	}
	if got, want := paper.Links()[3].String(), "link 3 (S1->L1#1)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	for _, name := range []string{"", "L1", "L1->S1", "L1->S1#", "L1->S1#01", "L1->S1#+1", "L1->S1#-1",
		"L1->S1#2", "L1->S3#0", "L3->S1#0", "L1S1#0", "h0->L2#0", "h99->L1#0"} {
		if l := paper.LinkByName(name); l != nil {
			t.Errorf("LinkByName(%q) = %v, want nil", name, l)
		}
	}
}

// TestLinkPairsResolveEveryTrunk sets the rate and then the state of every
// trunk pair of a three-trunk fabric, and of a host's link pair, and checks
// that exactly the pair's two links changed.
func TestLinkPairsResolveEveryTrunk(t *testing.T) {
	cfg := PaperTestbed(1)
	cfg.Leaves, cfg.Spines, cfg.TrunksPerPair, cfg.HostsPerLeaf = 3, 2, 3, 2
	ls := BuildLeafSpine(sim.New(1), cfg)
	type pair struct {
		a, b  string
		trunk int
	}
	var pairs []pair
	for _, lf := range ls.Leaves {
		for _, sp := range ls.Spines {
			for k := 0; k < cfg.TrunksPerPair; k++ {
				pairs = append(pairs, pair{lf.Name(), sp.Name(), k}, pair{sp.Name(), lf.Name(), k})
			}
		}
	}
	pairs = append(pairs, pair{"L2", "h3", 0}, pair{"h3", "L2", 0})
	for i, p := range pairs {
		rate := int64(1e6 * (i + 1))
		ls.SetLinkPairRate(p.a, p.b, p.trunk, rate)
		ls.SetLinkPairUp(p.a, p.b, p.trunk, false)
		ab := ls.LinkByName(linkName(p.a, p.b, p.trunk))
		ba := ls.LinkByName(linkName(p.b, p.a, p.trunk))
		for _, l := range ls.Links() {
			pairLink := l == ab || l == ba
			if pairLink != (l.RateBps() == rate) || pairLink == l.Up() {
				t.Fatalf("after setting %v: %s has rate %d, up %v", p, l.Name(), l.RateBps(), l.Up())
			}
		}
		ls.SetLinkPairUp(p.a, p.b, p.trunk, true)
	}
}

// TestMissingLinkPairPanics checks the message a nonexistent pair panics
// with.
func TestMissingLinkPairPanics(t *testing.T) {
	ls := BuildLeafSpine(sim.New(1), PaperTestbed(1))
	for _, tc := range []struct {
		a, b  string
		trunk int
		msg   string
	}{
		{"L1", "S3", 0, "netem: no link pair L1->S3#0 / S3->L1#0"},
		{"L1", "S1", 2, "netem: no link pair L1->S1#2 / S1->L1#2"},
		{"L1", "L2", 0, "netem: no link pair L1->L2#0 / L2->L1#0"},
		{"X", "S1", 0, "netem: no link pair X->S1#0 / S1->X#0"},
	} {
		func() {
			defer func() {
				if r := recover(); r != tc.msg {
					t.Errorf("SetLinkPairUp(%s, %s, %d) panicked with %v, want %q", tc.a, tc.b, tc.trunk, r, tc.msg)
				}
			}()
			ls.SetLinkPairUp(tc.a, tc.b, tc.trunk, false)
		}()
	}
}

// TestBuildAllocsFlat checks that a leaf-spine build allocates per kind of
// object, not per link or host: 64 leaves (2,048 links) cost as many objects
// as 4 (128 links), give or take the odd object the runtime allocates on the
// side. Every slab is used up, so none was sized too large.
func TestBuildAllocsFlat(t *testing.T) {
	allocs := func(leaves int) float64 {
		cfg := PaperTestbed(1)
		cfg.Leaves, cfg.Spines, cfg.TrunksPerPair, cfg.HostsPerLeaf = leaves, 8, 1, 16
		return testing.AllocsPerRun(20, func() { BuildLeafSpine(sim.New(1), cfg) })
	}
	small, large := allocs(4), allocs(64)
	t.Logf("objects per build: %v at 4 leaves, %v at 64", small, large)
	if large > small+2 {
		t.Errorf("a 64-leaf build allocates %v objects, a 4-leaf one %v: allocations grow with the fabric", large, small)
	}

	shallow := PaperTestbed(1)
	shallow.QueueCap = initialRing / 2 // rings smaller than initialRing
	for _, cfg := range []LeafSpineConfig{PaperTestbed(0.01), shallow, k16Fabric(1).Cfg} {
		ls := BuildLeafSpine(sim.New(1), cfg)
		if s := ls.slab; len(s.switches)+len(s.hosts)+len(s.links)+len(s.rings)+len(s.egress) != 0 {
			t.Errorf("%+v: slabs left over: %d switches, %d hosts, %d links, %d ring slots, %d egress slots",
				cfg, len(s.switches), len(s.hosts), len(s.links), len(s.rings), len(s.egress))
		}
	}
}

// TestHandBuiltLinksAllocateSingly checks that a topology built link by link,
// with no slab reserved, allocates each link and its ring alone: a fixed
// chunk of links per allocation would cost a small fabric more than it saves.
func TestHandBuiltLinksAllocateSingly(t *testing.T) {
	s := sim.New(1)
	cfg := LinkConfig{RateBps: 1e9, Delay: sim.Microsecond}
	warm := NewTopology(s) // makes the simulator's lanes for cfg
	warm.Connect(warm.AddSwitch("A"), warm.AddSwitch("B"), 0, cfg)
	topo := NewTopology(s)
	a, b := topo.AddSwitch("A"), topo.AddSwitch("B")
	const n = 10
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for k := 0; k < n; k++ {
		topo.Connect(a, b, k, cfg)
	}
	runtime.ReadMemStats(&m1)
	// Two links and their 8-slot rings are under 600 bytes; the link list and
	// the two egress sets regrow now and then.
	if per := (m1.TotalAlloc - m0.TotalAlloc) / n; per > 2048 {
		t.Errorf("Connect allocates %d bytes, want at most 2048", per)
	}
	if l := topo.LinkByName("B->A#7"); l == nil || l.Name() != "B->A#7" {
		t.Errorf("LinkByName(B->A#7) = %v", l)
	}
}
