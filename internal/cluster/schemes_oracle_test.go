package cluster

import "testing"

// TestNewSchemesOracleClean runs the stateless (concury) and in-network
// (charon) contrast schemes — and their hidden differential references —
// under the full oracle on the two-leaf and the 4-leaf fabric. Concury additionally arms
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
				t.Fatalf("2 leaves: bad run %+v", res)
			}
			if err := c.CheckOracle(); err != nil {
				t.Errorf("2 leaves: oracle: %v", err)
			}

			c2 := New(Config{Seed: 7, Topo: fourLeafTopo(), Scheme: scheme,
				Oracle: true, ServersPerClient: 4})
			res2 := c2.RunMix(fourLeafMix())
			if res2.Completed == 0 || res2.TimedOut {
				t.Fatalf("4 leaves: bad run %+v", res2)
			}
			if err := c2.CheckOracle(); err != nil {
				t.Errorf("4 leaves: oracle: %v", err)
			}
		})
	}
}
