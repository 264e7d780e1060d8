package sim_test

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"clove/internal/cluster"
	"clove/internal/netem"
	"clove/internal/sim"
)

// BenchmarkPendingMixWebSearch measures the event queue's shape on one
// Clove-ECN run of the paper's web-search condition (two leaves, four hosts
// each, a failed trunk, load 0.7): before every pop it samples the heap's
// length, the number of events waiting in lanes and whether the event about
// to fire comes from a lane. It reports heap_len/pop, lane_len/pop and
// lane_fire_frac, and logs the fires' shares by EventFunc. Run it with
// -benchtime 1x; each iteration is one full run.
func BenchmarkPendingMixWebSearch(b *testing.B) {
	var pops, heapSum, laneSum, laneFires int
	byFn := map[uintptr]int{}
	for i := 0; i < b.N; i++ {
		c := cluster.New(cluster.Config{Seed: 1, Topo: netem.ScaledTestbed(1.0, 4),
			Scheme: cluster.SchemeCloveECN, AsymmetricFailure: true})
		s := c.Sim
		s.SetEventHook(func() {
			fn, inLane, ok := sim.NextEvent(s)
			if !ok {
				return
			}
			pops++
			heapSum += sim.HeapLen(s)
			laneSum += sim.LaneLen(s)
			if inLane {
				laneFires++
			}
			byFn[reflect.ValueOf(fn).Pointer()]++
		})
		c.RunWebSearch(cluster.WebSearchParams{Load: 0.7, TotalJobs: 4000, SizeScale: 0.1, ConnsPerClient: 1})
	}
	if pops == 0 {
		b.Fatal("no event was sampled")
	}
	b.ReportMetric(float64(heapSum)/float64(pops), "heap_len/pop")
	b.ReportMetric(float64(laneSum)/float64(pops), "lane_len/pop")
	b.ReportMetric(float64(laneFires)/float64(pops), "lane_fire_frac")

	type share struct {
		name string
		n    int
	}
	var shares []share
	for pc, n := range byFn {
		name := runtime.FuncForPC(pc).Name()
		shares = append(shares, share{name[strings.LastIndex(name, "/")+1:], n})
	}
	sort.Slice(shares, func(i, j int) bool { return shares[i].n > shares[j].n })
	var sb strings.Builder
	for _, sh := range shares {
		fmt.Fprintf(&sb, " %s %.1f%%", sh.name, 100*float64(sh.n)/float64(pops))
	}
	b.Logf("%d pops; fires by EventFunc:%s", pops, sb.String())
}
