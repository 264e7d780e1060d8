package vswitch

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"clove/internal/clove"
	"clove/internal/packet"
	"clove/internal/sim"
)

// TestWeightTablesMatchMapReference drives CloveECN and CloveINT through
// random installs, re-installs with another port set and withdrawals (an
// empty set) over random destinations, interleaved with picks, feedback and
// AllCongested queries. A map keyed by destination, holding standalone
// tables, is the reference for the policies' sorted destination index:
// Table, VisitTables' order, PickPort, AllCongested and every table's state
// must agree after each step.
func TestWeightTablesMatchMapReference(t *testing.T) {
	cfg := clove.DefaultWeightTableConfig(100 * sim.Microsecond)
	var now sim.Time
	clock := func() sim.Time { return now }
	cases := []struct {
		name string
		pol  PathPolicy
		wt   func(PathPolicy) *weightTables
		pick func(*clove.WeightTable) uint16
	}{
		{"clove-ecn", NewCloveECN(cfg), func(p PathPolicy) *weightTables { return &p.(*CloveECN).weightTables },
			func(t *clove.WeightTable) uint16 { return t.NextPort() }},
		{"clove-int", NewCloveINT(cfg, clock), func(p PathPolicy) *weightTables { return &p.(*CloveINT).weightTables },
			func(t *clove.WeightTable) uint16 { return t.LeastUtilizedPort(now) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(50))
			now = 0
			ref := map[packet.HostID]*clove.WeightTable{}
			wt := tc.wt(tc.pol)
			randDst := func() packet.HostID {
				if rng.Intn(16) == 0 {
					return packet.HostID(math.MaxInt32 - rng.Int31n(2))
				}
				return packet.HostID(rng.Intn(48))
			}
			randPorts := func() []uint16 {
				ports := make([]uint16, rng.Intn(6)) // empty: a withdrawal
				for i := range ports {
					ports[i] = uint16(1000 + rng.Intn(8))
				}
				return ports
			}
			for step := 0; step < 20000; step++ {
				now += sim.Time(rng.Intn(40)) * sim.Microsecond
				dst := randDst()
				want := ref[dst]
				switch rng.Intn(4) {
				case 0:
					ports := randPorts()
					tc.pol.SetPaths(dst, ports)
					if want != nil {
						want.SetPorts(ports)
					} else {
						ref[dst] = clove.NewWeightTable(cfg, ports)
					}
				case 1:
					flow := packet.FiveTuple{Src: 1, Dst: dst, SrcPort: uint16(rng.Intn(1 << 16)), DstPort: 80, Proto: packet.ProtoTCP}
					id := rng.Uint32()
					var exp uint16
					if want == nil || want.Len() == 0 {
						exp = portHash(flow, id+1)
					} else {
						exp = tc.pick(want)
					}
					if got := tc.pol.PickPort(dst, flow, id); got != exp {
						t.Fatalf("step %d: PickPort(%d) = %d, reference %d", step, dst, got, exp)
					}
				case 2:
					fb := packet.Feedback{Valid: true, Port: uint16(1000 + rng.Intn(9)), ECN: rng.Intn(2) == 0, HasUtil: rng.Intn(2) == 0, Util: rng.Float64()}
					tc.pol.OnFeedback(dst, fb, now)
					if want != nil {
						want.OnFeedback(fb, now)
					}
				default:
					exp := want != nil && want.AllCongested(now)
					if got := tc.pol.AllCongested(dst, now); got != exp {
						t.Fatalf("step %d: AllCongested(%d) = %v, reference %v", step, dst, got, exp)
					}
				}
				if got := wt.Table(dst); (got == nil) != (ref[dst] == nil) || got != nil && !reflect.DeepEqual(got.States(), ref[dst].States()) {
					t.Fatalf("step %d: Table(%d) disagrees with the reference", step, dst)
				}
			}
			var visited []packet.HostID
			wt.VisitTables(func(dst packet.HostID, tab *clove.WeightTable) {
				visited = append(visited, dst)
				if !reflect.DeepEqual(tab.States(), ref[dst].States()) {
					t.Errorf("VisitTables: table for %d disagrees with the reference", dst)
				}
			})
			keys := make([]packet.HostID, 0, len(ref))
			for dst := range ref {
				keys = append(keys, dst)
			}
			slices.Sort(keys)
			if !slices.Equal(visited, keys) {
				t.Errorf("VisitTables order %v, want %v", visited, keys)
			}
		})
	}
}
