package cluster

import (
	"math"
	"testing"
)

// TestPoissonChainGap pins the one gap rule: exponential with mean
// 1/(rate × load scale).
func TestPoissonChainGap(t *testing.T) {
	c := New(Config{Seed: 4, Topo: smallTopo(), Scheme: SchemeECMP})
	for _, scale := range []float64{1, 2} {
		c.SetLoadScale(scale)
		ch := &chain{j: &jobs{c: c}, rate: 1000} // 1000 jobs/s -> mean 1 ms
		var total float64
		const n = 20000
		for i := 0; i < n; i++ {
			total += ch.gap().Seconds()
		}
		want := 0.001 / scale
		if mean := total / n; math.Abs(mean-want) > 0.1*want {
			t.Errorf("load scale %v: mean gap %v, want ~%v", scale, mean, want)
		}
	}
}

// TestPoissonChainArrivals pins a chain's event count: n arrivals that each
// issue a job, then one trailing arrival that issues nothing.
func TestPoissonChainArrivals(t *testing.T) {
	c := New(Config{Seed: 1, Topo: smallTopo(), Scheme: SchemeECMP})
	j := &jobs{c: c}
	issued := 0
	j.poisson(1000, 3, 0, func() { issued++ })
	before := c.Sim.Processed()
	c.Sim.Run()
	if issued != 3 || j.target != 3 {
		t.Errorf("issued %d jobs toward target %d, want 3 and 3", issued, j.target)
	}
	if ev := c.Sim.Processed() - before; ev != 4 {
		t.Errorf("chain of 3 jobs fired %d events, want 4", ev)
	}
}

func TestPoissonChainPanics(t *testing.T) {
	for _, rate := range []float64{0, -1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic on arrival rate %v", rate)
				}
			}()
			c := New(Config{Seed: 1, Topo: smallTopo(), Scheme: SchemeECMP})
			(&jobs{c: c}).poisson(rate, 1, 0, func() {})
		}()
	}
}
