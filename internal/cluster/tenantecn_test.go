package cluster

import (
	"testing"

	"clove/internal/sim"
)

// TestTenantECNAndRelayToVM checks Clove's ECE relay to the sending VM
// (DESIGN.md §4b) with tenant ECN off and on. The relay fires only when
// every installed path toward a peer holds fresh CE feedback; with four
// paths a flowlet keeps the others unmarked, so one path per pair
// (PathsK 1) under web-search load is what makes it fire. Off, the tenant
// ignores ECE and never reduces its window; on, it backs off, which thins
// the marks that feed the relay.
func TestTenantECNAndRelayToVM(t *testing.T) {
	run := func(tenantECN bool) (relays, reductions int64) {
		c := New(Config{Seed: 1, Topo: smallTopo(), Scheme: SchemeCloveECN, PathsK: 1, TenantECN: tenantECN})
		res := c.RunWebSearch(WebSearchParams{Load: 0.8, TotalJobs: 400, SizeScale: 0.1, MaxSimTime: 300 * sim.Second})
		if res.TimedOut || res.Completed != res.Issued {
			t.Fatalf("TenantECN %v: %d/%d jobs completed, timed out %v", tenantECN, res.Completed, res.Issued, res.TimedOut)
		}
		for _, v := range c.VSwitches {
			relays += v.Stats().ECNRelayedToVM
		}
		return relays, c.TransportStats().ECNReductions
	}
	offRelays, offReductions := run(false)
	if offRelays == 0 || offReductions != 0 {
		t.Errorf("TenantECN off: %d ECE relays and %d tenant ECN reductions, want some relays and no reductions", offRelays, offReductions)
	}
	onRelays, onReductions := run(true)
	if onRelays == 0 || onReductions == 0 {
		t.Errorf("TenantECN on: %d ECE relays and %d tenant ECN reductions, want both non-zero", onRelays, onReductions)
	}
	if onRelays >= offRelays {
		t.Errorf("tenant ECN response did not thin the relays: %d on, %d off", onRelays, offRelays)
	}
}
