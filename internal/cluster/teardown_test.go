package cluster

import (
	"testing"

	"clove/internal/packet"
	"clove/internal/sim"
)

// drain is a deadline far past any teardown test's last event: running to
// it drains the queue of a quiesced cluster.
const drain = 100 * sim.Second

// TestTotalPartitionTeardownLeavesNoLeak strands in-flight transfers by
// failing every spine mid-transfer, then tears the workload down the way
// RunMix does (AbortOpenConns + Quiesce) and drains the event queue. The
// oracle's pool-ownership audit then runs with zero pending events, so any
// packet stranded on a dead switch, an orphaned retransmission timer, or a
// pooled buffer not returned on the drop path is an exact, attributable
// failure here.
func TestTotalPartitionTeardownLeavesNoLeak(t *testing.T) {
	c := New(Config{Seed: 7, Topo: smallTopo(), Scheme: SchemeCloveECN, Oracle: true})
	c.SetupPaths([][2]packet.HostID{{0, 4}, {1, 5}, {4, 0}, {5, 1}})

	done := 0
	for i := 0; i < 2; i++ {
		conn := c.OpenConn(packet.HostID(i), packet.HostID(4+i), 0)
		conn.StartJob(10_000_000, func(sim.Time) { done++ })
	}
	// Both spines die mid-transfer: the fabric is fully partitioned, every
	// unacked segment and its retransmissions are lost.
	c.ScheduleControl(2*sim.Millisecond, func() {
		c.LS.SetSwitchUp("S1", false)
		c.LS.SetSwitchUp("S2", false)
	})
	// The workload gives up on the stranded connections.
	c.ScheduleControl(50*sim.Millisecond, func() {
		c.AbortOpenConns()
		c.Quiesce()
	})
	c.Sim.RunUntil(drain)

	if done != 0 {
		t.Errorf("%d jobs completed across a total partition", done)
	}
	if p := c.Sim.Pending(); p != 0 {
		t.Fatalf("event queue did not drain after teardown: %d pending", p)
	}
	if err := c.CheckOracle(); err != nil {
		t.Fatalf("oracle after mid-transfer teardown: %v", err)
	}
}

// TestSpineFailureMidTransferRecovers is the companion: one spine fails
// mid-transfer and later returns; the transfer must complete over the
// survivor, and the run must still audit clean.
func TestSpineFailureMidTransferRecovers(t *testing.T) {
	c := New(Config{Seed: 8, Topo: smallTopo(), Scheme: SchemeCloveECN, Oracle: true})
	c.SetupPaths([][2]packet.HostID{{0, 4}, {4, 0}})

	done := 0
	conn := c.OpenConn(0, 4, 0)
	conn.StartJob(5_000_000, func(sim.Time) { done++ })
	c.ScheduleControl(1*sim.Millisecond, func() { c.LS.SetSwitchUp("S1", false) })
	c.ScheduleControl(30*sim.Millisecond, func() { c.LS.SetSwitchUp("S1", true) })
	c.Sim.RunUntil(500 * sim.Millisecond)

	if done != 1 {
		t.Fatalf("transfer did not complete through single-spine failure (done=%d)", done)
	}
	c.AbortOpenConns()
	c.Quiesce()
	c.Sim.RunUntil(drain)
	if p := c.Sim.Pending(); p != 0 {
		t.Fatalf("event queue did not drain: %d pending", p)
	}
	if err := c.CheckOracle(); err != nil {
		t.Fatalf("oracle after recovery run: %v", err)
	}
}

// TestAbortIsIdempotentAndFinal: aborting twice is safe, and an aborted
// connection never resurrects its retransmission machinery.
func TestAbortIsIdempotentAndFinal(t *testing.T) {
	c := New(Config{Seed: 9, Topo: smallTopo(), Scheme: SchemeECMP, Oracle: true})
	conn := c.OpenConn(0, 4, 0)
	conn.StartJob(1_000_000, func(sim.Time) { t.Error("aborted job completed") })
	c.Sim.RunUntil(200 * sim.Microsecond) // let some segments into flight
	conn.Abort()
	conn.Abort()
	c.Quiesce()
	c.Sim.RunUntil(drain)
	if p := c.Sim.Pending(); p != 0 {
		t.Fatalf("pending after double abort: %d", p)
	}
	if err := c.CheckOracle(); err != nil {
		t.Fatalf("oracle after double abort: %v", err)
	}
}
