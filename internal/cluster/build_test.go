package cluster_test

import (
	"testing"

	"clove/internal/cluster"
	"clove/internal/scenario"
)

// buildK16 is the fat-tree-k16-mixed scenario's set-up: load the spec, build
// its Clove-ECN cluster (1,024 hosts, 64 leaves, 8 spines) and schedule its
// event script.
func buildK16(tb testing.TB) *cluster.Cluster {
	sp, err := scenario.Load("fat-tree-k16-mixed")
	if err != nil {
		tb.Fatal(err)
	}
	c := cluster.New(sp.ClusterConfig(string(cluster.SchemeCloveECN), 1, false, nil, 1))
	sp.InstallEvents(c)
	return c
}

// maxK16BuildAllocs bounds the heap objects of one k16 build. The fabric's
// links, rings and hosts come from slabs its builder sizes, and a vswitch
// holds its flowlet table by value, so what is left grows with the hosts'
// vswitches and policies, not with every link and table.
const maxK16BuildAllocs = 7000

// TestBuildK16Allocs pins the heap cost of building the k16 scenario.
func TestBuildK16Allocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 1,024-host fabric")
	}
	n := testing.AllocsPerRun(3, func() { buildK16(t) })
	t.Logf("k16 build: %.0f objects", n)
	if n > maxK16BuildAllocs {
		t.Errorf("k16 build allocates %.0f objects, want <= %d", n, maxK16BuildAllocs)
	}
}

// BenchmarkBuildK16 prices one k16 build (run it with -benchmem). It fails
// above maxK16BuildAllocs objects per build.
func BenchmarkBuildK16(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildK16(b)
	}
	b.StopTimer()
	if n := testing.AllocsPerRun(1, func() { buildK16(b) }); n > maxK16BuildAllocs {
		b.Fatalf("k16 build allocates %.0f objects, want <= %d", n, maxK16BuildAllocs)
	}
}
