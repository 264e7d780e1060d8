package cluster

import (
	"testing"

	"clove/internal/netem"
)

// tracks reports whether l keeps a DRE: reading one that does not panics.
func tracks(l *netem.Link) (ok bool) {
	defer func() { ok = recover() == nil }()
	l.Utilization()
	return true
}

// TestDREsOnlyWhereRead checks that a cluster's links keep DREs exactly when
// its scheme reads link utilization: the INT stamps of Clove-INT and Charon,
// and CONGA's metrics.
func TestDREsOnlyWhereRead(t *testing.T) {
	reads := map[Scheme]bool{SchemeCloveINT: true, SchemeCONGA: true, SchemeCharon: true, SchemeCharonRef: true}
	for _, scheme := range append(AllSchemes(), SchemeCloveUniform, SchemeConcuryRef, SchemeCharonRef) {
		c := New(Config{Seed: 1, Topo: smallTopo(), Scheme: scheme})
		for _, l := range c.LS.Links() {
			if got := tracks(l); got != reads[scheme] {
				t.Errorf("%s: %s keeps a DRE: %v, want %v", scheme, l.Name(), got, reads[scheme])
				break
			}
		}
	}
}
