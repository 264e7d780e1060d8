package cluster

import (
	"testing"

	"clove/internal/packet"
	"clove/internal/sim"
)

// TestMidRunFailureWithRediscovery drives steady Clove-ECN traffic, fails a
// trunk mid-run, and verifies (a) everything still completes, (b) the
// prober re-installed path sets after the change, and (c) the weights
// shifted away from the surviving S2 bottleneck.
func TestMidRunFailureWithRediscovery(t *testing.T) {
	c := New(Config{
		Seed:          41,
		Topo:          smallTopo(),
		Scheme:        SchemeCloveECN,
		UseProber:     true,
		ProbeInterval: 10 * sim.Millisecond,
	})

	var pairs [][2]packet.HostID
	for i := 0; i < 4; i++ {
		pairs = append(pairs,
			[2]packet.HostID{packet.HostID(i), packet.HostID(4 + i)},
			[2]packet.HostID{packet.HostID(4 + i), packet.HostID(i)})
	}
	c.SetupPaths(pairs)

	// Continuous chains of 1MB jobs with gaps, so flowlets keep forming.
	s := c.Sim
	completed := 0
	for i := 0; i < 4; i++ {
		conn := c.OpenConn(packet.HostID(i), packet.HostID(4+i), 0)
		var chain func()
		chain = func() {
			conn.StartJob(1_000_000, func(sim.Time) {
				completed++
				s.After(100*sim.Microsecond, chain)
			})
		}
		s.At(2*sim.Millisecond, chain)
	}

	c.ScheduleControl(40*sim.Millisecond, c.LS.FailPaperLink)
	c.Sim.RunUntil(120 * sim.Millisecond)

	if completed < 20 {
		t.Fatalf("only %d jobs completed through the failure", completed)
	}
	// The prober must have run multiple rounds, including post-failure.
	var updates int64
	for _, pr := range c.Probers {
		updates += pr.Stats().PathSetUpdates
	}
	if updates < 8 {
		t.Errorf("path set updates = %d, want several rounds", updates)
	}
	// Traffic through the degraded spine should be lighter than via S1
	// after the failure window.
	var viaS1, viaS2 int64
	for _, name := range []string{"L1->S1#0", "L1->S1#1"} {
		viaS1 += c.LS.LinkByName(name).Stats().TxBytes
	}
	for _, name := range []string{"L1->S2#0", "L1->S2#1"} {
		viaS2 += c.LS.LinkByName(name).Stats().TxBytes
	}
	if viaS2 >= viaS1 {
		t.Errorf("load not shifted off degraded spine: S1=%dMB S2=%dMB", viaS1/1e6, viaS2/1e6)
	}
}

// TestFailureWithoutRediscoveryStillCompletes verifies correctness (not
// performance) when discovery never reruns: stale port sets still map to
// valid paths because ECMP routes around the failure.
func TestFailureWithoutRediscoveryStillCompletes(t *testing.T) {
	c := New(Config{Seed: 42, Topo: smallTopo(), Scheme: SchemeCloveECN})
	c.SetupPaths([][2]packet.HostID{{0, 4}, {4, 0}})
	conn := c.OpenConn(0, 4, 0)
	done := 0
	for i := 0; i < 5; i++ {
		conn.StartJob(500_000, func(sim.Time) { done++ })
	}
	c.ScheduleControl(2*sim.Millisecond, c.LS.FailPaperLink)
	c.Sim.RunUntil(5 * sim.Second)
	if done != 5 {
		t.Errorf("completed %d/5 with stale paths after failure", done)
	}
}

// TestLinkRevivalRestoresCapacity fails and revives the trunk and checks
// the fabric returns to full-rate operation.
func TestLinkRevivalRestoresCapacity(t *testing.T) {
	c := New(Config{Seed: 43, Topo: smallTopo(), Scheme: SchemeEdgeFlowlet})
	conn := c.OpenConn(0, 4, 0)
	done := false
	c.ScheduleControl(0, c.LS.FailPaperLink)
	c.ScheduleControl(sim.Millisecond, func() { c.LS.SetLinkPairUp("L2", "S2", 0, true) })
	c.Sim.At(2*sim.Millisecond, func() {
		conn.StartJob(2_000_000, func(sim.Time) { done = true })
	})
	c.Sim.RunUntil(5 * sim.Second)
	if !done {
		t.Fatal("transfer did not complete after revival")
	}
	// All four spine trunks should be live routes again.
	if got := len(c.LS.Spines[1].NextHops(4)); got != 2 {
		t.Errorf("S2 routes after revival = %d", got)
	}
}
