package cluster

import (
	"reflect"
	"testing"

	"clove/internal/sim"
)

// TestScheduleControlTieOrder pins how a control action orders against
// ordinary events on the two-leaf fabric, which every scripted scenario
// golden depends on: a ScheduleControl at T fires after the events at T
// scheduled before it and before those scheduled after it, and a route
// recompute a control action triggers (RouteRecomputeDelay > 0) lands at the
// action's time plus the delay.
func TestScheduleControlTieOrder(t *testing.T) {
	const at = 3 * sim.Millisecond
	t.Run("same-timestamp order", func(t *testing.T) {
		c := New(Config{Seed: 1, Topo: smallTopo(), Scheme: SchemeECMP})
		s := c.Sim
		var order []string
		s.At(at, func() { order = append(order, "before") })
		c.ScheduleControl(at, func() {
			order = append(order, "control")
			s.At(at, func() { order = append(order, "scheduled by control") })
		})
		s.At(at, func() { order = append(order, "after") })
		c.Sim.RunUntil(2 * at)
		want := []string{"before", "control", "after", "scheduled by control"}
		if !reflect.DeepEqual(order, want) {
			t.Fatalf("order = %q, want %q", order, want)
		}
	})
	t.Run("recompute delay", func(t *testing.T) {
		const delay = 500 * sim.Microsecond
		c := New(Config{Seed: 1, Topo: smallTopo(), Scheme: SchemeECMP})
		c.LS.RouteRecomputeDelay = delay
		s := c.Sim
		s2 := c.LS.Spines[1]
		hops := map[string]int{}
		probe := func(name string) func() {
			return func() { hops[name] = len(s2.NextHops(4)) }
		}
		s.At(at+delay-1, probe("just before"))
		s.At(at+delay, probe("at, scheduled first"))
		c.ScheduleControl(at, func() {
			c.LS.SetLinkPairUp("L2", "S2", 0, false)
			probe("in the action")()
			s.At(at+delay, probe("at, scheduled after the failure"))
		})
		c.Sim.RunUntil(2 * at)
		want := map[string]int{
			"in the action":                   2,
			"just before":                     2,
			"at, scheduled first":             2,
			"at, scheduled after the failure": 1,
		}
		if !reflect.DeepEqual(hops, want) {
			t.Fatalf("S2 next-hops toward host 4 = %v, want %v", hops, want)
		}
	})
}
