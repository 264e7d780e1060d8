package cluster_test

import (
	"slices"
	"sort"
	"testing"

	"clove/internal/cluster"
	"clove/internal/netem"
	"clove/internal/packet"
	"clove/internal/scenario"
)

// oracleFabrics are the fabrics the oracle installs paths on: every
// embedded scenario's at quick scale, the full k=16 slice (64 leaves × 8
// spines), and the paper testbed with and without its failed trunk.
func oracleFabrics() map[string]cluster.Config {
	fabrics := map[string]cluster.Config{}
	for name, sp := range scenario.Library() {
		fabrics[name+"/quick"] = sp.Quick().ClusterConfig(string(cluster.SchemeCloveECN), 1, false, nil, 0)
	}
	fabrics["64x8"] = scenario.Library()["fat-tree-k16-mixed"].ClusterConfig(string(cluster.SchemeCloveECN), 1, false, nil, 0)
	for _, asym := range []bool{false, true} {
		name := "testbed"
		if asym {
			name += "/asym"
		}
		fabrics[name] = cluster.Config{Seed: 1, Topo: netem.ScaledTestbed(1.0, 4), Scheme: cluster.SchemeCloveECN, AsymmetricFailure: asym}
	}
	return fabrics
}

// TestOracleInstallMatchesFullWalk: on every mesh pair of every fabric, the
// ports the oracle installs after its early stop are those a walk of all 64
// ports plus SelectDisjoint picks. On the 64×8 fabric, where each pair has
// eight distinct paths (one per spine), the early stop must walk at most 8
// ports per pair on average.
func TestOracleInstallMatchesFullWalk(t *testing.T) {
	fabrics := oracleFabrics()
	var names []string
	for name := range fabrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cfg := fabrics[name]
		t.Run(name, func(t *testing.T) {
			c := cluster.New(cfg)
			pairs := c.MeshPairs()
			o := c.NewOracleInstaller()
			for _, p := range pairs {
				o.Install(p[0], p[1])
			}
			for _, p := range pairs {
				got, want := c.DiscoveredPorts(p[0], p[1]), c.FullWalkPorts(p[0], p[1])
				if len(want) == 0 || !slices.Equal(got, want) {
					t.Fatalf("%d→%d: installed %v, full walk selects %v", p[0], p[1], got, want)
				}
			}
			mean := float64(o.Walked()) / float64(len(pairs))
			t.Logf("%d pairs, %.2f ports walked per pair", len(pairs), mean)
			if name == "64x8" && mean > 8 {
				t.Errorf("%.2f ports walked per pair, want at most 8", mean)
			}
		})
	}
}

// BenchmarkOracleInstall64x8 prices the oracle's path install for one pair
// of the k=16 slice's mesh (64 leaves × 8 spines, Clove-ECN): the walk up
// to its early stop, the selection, and the install. ns/op and allocs/op
// are per pair. Once every pair has been installed, a reinstall allocates
// only the port list the vswitch keeps.
func BenchmarkOracleInstall64x8(b *testing.B) {
	c := cluster.New(oracleFabrics()["64x8"])
	pairs := c.MeshPairs()
	o := c.NewOracleInstaller()
	next := 0
	install := func() {
		p := pairs[next%len(pairs)]
		next++
		o.Install(p[0], p[1])
	}
	for range pairs {
		install()
	}
	if allocs := testing.AllocsPerRun(1000, install); allocs > 1 {
		b.Fatalf("reinstalling a pair allocates %v times, want at most 1 (its port list)", allocs)
	}
	walked := o.Walked()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		install()
	}
	b.ReportMetric(float64(o.Walked()-walked)/float64(b.N), "ports/pair")
}

// BenchmarkOracleFirstInstall64x8 prices a pair's first oracle install on
// the k=16 slice's mesh, which BenchmarkOracleInstall64x8's reinstalls never
// pay: the walk and selection, the installed port list, and the weight table
// the source vswitch builds for the pair. ns, B and allocs are per fresh
// pair; once a cluster's pairs are used up a new one is built outside the
// timer. It fails above three objects per pair: the table's header and path
// records, and the port list. The vswitch's sorted destination index grows
// by doubling, which adds ≈22 B per pair and stays under AllocsPerRun's
// integer mean.
func BenchmarkOracleFirstInstall64x8(b *testing.B) {
	var pairs [][2]packet.HostID
	var o *cluster.OracleInstaller
	next := 0
	install := func() {
		if next == len(pairs) {
			b.StopTimer()
			c := cluster.New(oracleFabrics()["64x8"])
			pairs, o, next = c.MeshPairs(), c.NewOracleInstaller(), 0
			b.StartTimer()
		}
		p := pairs[next]
		next++
		o.Install(p[0], p[1])
	}
	install()
	if allocs := testing.AllocsPerRun(1000, install); allocs > 3 {
		b.Fatalf("a first install allocates %v times, want at most 3 (table header, path records, port list)", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		install()
	}
}
