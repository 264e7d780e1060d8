package clove

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"clove/internal/sim"
)

// refTable is the weight table rebuilt from the paper's rule on the
// exported API alone: per-slot state in a plain slice (a duplicated port
// holds one slot per occurrence, as in the table), carry-over keyed by port
// in a map (refSetPorts), and a WRR rebuilt with Reset after every
// reweighting.
type refTable struct {
	cfg   WeightTableConfig
	paths []PathState
	wrr   *WRR
}

func newRefTable(cfg WeightTableConfig, ports []uint16) *refTable {
	r := &refTable{cfg: cfg, wrr: NewWRR(nil)}
	r.setPorts(ports)
	return r
}

func (r *refTable) setPorts(ports []uint16) {
	r.paths = refSetPorts(r.paths, ports)
	r.reweight()
}

// reweight water-fills the weights over the floor and restarts the WRR.
func (r *refTable) reweight() {
	n := len(r.paths)
	if n > 0 {
		r.waterFill(n)
	}
	ports := make([]uint16, n)
	weights := make([]float64, n)
	for i, p := range r.paths {
		ports[i], weights[i] = p.Port, p.Weight
	}
	r.wrr.Reset(ports, weights)
}

func (r *refTable) waterFill(n int) {
	floor := r.cfg.Floor
	uniform := func() {
		for i := range r.paths {
			r.paths[i].Weight = 1.0 / float64(n)
		}
	}
	if floor*float64(n) >= 1 {
		uniform()
		return
	}
	var sum float64
	for i := range r.paths {
		if r.paths[i].Weight < floor {
			r.paths[i].Weight = floor
		}
		sum += r.paths[i].Weight
	}
	if sum <= 0 {
		uniform()
		return
	}
	pinned := map[int]bool{}
	for iter := 0; iter < n; iter++ {
		sumFree := 0.0
		for i := range r.paths {
			if !pinned[i] {
				sumFree += r.paths[i].Weight
			}
		}
		target := 1 - floor*float64(len(pinned))
		if len(pinned) == n || sumFree <= 0 {
			return
		}
		changed := false
		for i := range r.paths {
			if pinned[i] {
				continue
			}
			w := r.paths[i].Weight * target / sumFree
			if w < floor {
				w, pinned[i], changed = floor, true, true
			}
			r.paths[i].Weight = w
		}
		if !changed {
			return
		}
	}
}

func (r *refTable) index(port uint16) int {
	for i, p := range r.paths {
		if p.Port == port {
			return i
		}
	}
	return -1
}

func (r *refTable) congested(i int, now sim.Time) bool {
	lc := r.paths[i].LastCongested
	return lc > 0 && now-lc < r.cfg.CongestedAge
}

func (r *refTable) fresh(i int, now sim.Time) bool {
	return r.paths[i].UtilAt != 0 && now-r.paths[i].UtilAt <= r.cfg.UtilAge
}

func (r *refTable) onCongestion(port uint16, now sim.Time) {
	idx := r.index(port)
	if r.cfg.Frozen || idx < 0 {
		return
	}
	r.paths[idx].LastCongested = now
	removed := r.paths[idx].Weight * r.cfg.Beta
	r.paths[idx].Weight -= removed
	var recipients []int
	for i := range r.paths {
		if i != idx && !r.congested(i, now) {
			recipients = append(recipients, i)
		}
	}
	if len(recipients) == 0 {
		for i := range r.paths {
			if i != idx {
				recipients = append(recipients, i)
			}
		}
	}
	if len(recipients) == 0 {
		r.paths[idx].Weight += removed
		return
	}
	share := removed / float64(len(recipients))
	for _, i := range recipients {
		r.paths[i].Weight += share
	}
	r.reweight()
}

func (r *refTable) onUtilization(port uint16, util float64, now sim.Time) {
	if idx := r.index(port); !r.cfg.Frozen && idx >= 0 {
		r.paths[idx].Util, r.paths[idx].UtilAt = util, now
	}
}

func (r *refTable) leastUtilizedPort(now sim.Time) uint16 {
	best, bestUtil, anyFresh := 0, math.Inf(1), false
	for i := range r.paths {
		u := 0.0
		if r.fresh(i, now) {
			anyFresh, u = true, r.paths[i].Util
		}
		if u < bestUtil {
			best, bestUtil = i, u
		}
	}
	if !anyFresh {
		return r.wrr.Next()
	}
	return r.paths[best].Port
}

func (r *refTable) allCongested(now sim.Time) bool {
	for i := range r.paths {
		if !r.congested(i, now) {
			return false
		}
	}
	return len(r.paths) > 0
}

// TestWeightTableMatchesReference drives random rediscoveries (duplicated
// ports, longer than SetPorts' stack buffer), congestion and utilization
// feedback, picks and queries through the exported API, and checks every
// returned port and every States() snapshot bit for bit against refTable.
func TestWeightTableMatchesReference(t *testing.T) {
	configs := []struct {
		name   string
		mutate func(*WeightTableConfig)
	}{
		{"default", func(*WeightTableConfig) {}},
		{"low-floor", func(c *WeightTableConfig) { c.Floor = 0.001 }},
		{"high-floor", func(c *WeightTableConfig) { c.Floor = 0.15 }}, // infeasible from 7 paths
		{"beta-half", func(c *WeightTableConfig) { c.Beta = 0.5 }},
		{"frozen", func(c *WeightTableConfig) { c.Frozen = true }},
	}
	for i, tc := range configs {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultWeightTableConfig(100 * sim.Microsecond)
			tc.mutate(&cfg)
			randPorts := func() []uint16 {
				ports := make([]uint16, 1+rng.Intn(24))
				for i := range ports {
					ports[i] = uint16(1 + rng.Intn(30)) // small range: duplicates occur
				}
				return ports
			}
			randPort := func(ref *refTable) uint16 {
				if rng.Intn(10) == 0 {
					return uint16(100 + rng.Intn(5)) // not in the table
				}
				return ref.paths[rng.Intn(len(ref.paths))].Port
			}
			ports := randPorts()
			tab, ref := NewWeightTable(cfg, ports), newRefTable(cfg, ports)
			now := sim.Time(0)
			for step := 0; step < 5000; step++ {
				now += sim.Time(rng.Intn(150)) * sim.Microsecond
				switch op := rng.Intn(10); {
				case op == 0:
					ports := randPorts()
					tab.SetPorts(ports)
					ref.setPorts(ports)
				case op <= 3:
					port := randPort(ref)
					tab.OnCongestion(port, now)
					ref.onCongestion(port, now)
				case op <= 5:
					port, util := randPort(ref), rng.Float64()
					tab.OnUtilization(port, util, now)
					ref.onUtilization(port, util, now)
				case op <= 7:
					if got, want := tab.NextPort(), ref.wrr.Next(); got != want {
						t.Fatalf("step %d: NextPort %d, reference %d", step, got, want)
					}
				case op == 8:
					if got, want := tab.LeastUtilizedPort(now), ref.leastUtilizedPort(now); got != want {
						t.Fatalf("step %d: LeastUtilizedPort %d, reference %d", step, got, want)
					}
				default:
					if got, want := tab.AllCongested(now), ref.allCongested(now); got != want {
						t.Fatalf("step %d: AllCongested %v, reference %v", step, got, want)
					}
				}
				if got := tab.States(); !reflect.DeepEqual(got, ref.paths) {
					t.Fatalf("step %d: states\ngot  %+v\nwant %+v", step, got, ref.paths)
				}
			}
		})
	}
}
