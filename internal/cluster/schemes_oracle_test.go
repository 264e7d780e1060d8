package cluster

import "testing"

// TestNewSchemesOracleClean runs the stateless (concury) and in-network
// (charon) contrast schemes — and their hidden differential references —
// under the full oracle in both execution modes. Concury additionally arms
// the per-connection-consistency invariant (see connConsistent), so a clean
// CheckOracle here proves no connection moved ports while its pick remained
// installed.
func TestNewSchemesOracleClean(t *testing.T) {
	for _, scheme := range []Scheme{SchemeConcury, SchemeConcuryRef, SchemeCharon, SchemeCharonRef} {
		scheme := scheme
		t.Run(string(scheme), func(t *testing.T) {
			c := New(Config{Seed: 7, Topo: smallTopo(), Scheme: scheme, Oracle: true})
			res := c.RunWebSearch(smallWS(0.5))
			if res.Completed == 0 || res.TimedOut {
				t.Fatalf("legacy: bad run %+v", res)
			}
			if err := c.CheckOracle(); err != nil {
				t.Errorf("legacy: oracle: %v", err)
			}

			c2 := New(Config{Seed: 7, Topo: shardedTopo(), Scheme: scheme,
				Oracle: true, ServersPerClient: 4})
			res2 := c2.RunMix(shardedMix())
			if res2.Completed == 0 || res2.TimedOut {
				t.Fatalf("sharded: bad run %+v", res2)
			}
			if err := c2.CheckOracle(); err != nil {
				t.Errorf("sharded: oracle: %v", err)
			}
		})
	}
}
