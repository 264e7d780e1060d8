package netem

import (
	"fmt"

	"clove/internal/packet"
	"clove/internal/sim"
)

// Sharded construction: one Topology spread across the event domains of a
// sim.Engine. Every node (switch or host) is owned by exactly one domain and
// schedules only on that domain's Simulator; every link lives in its source
// node's domain (queue, serializer, DRE), and a link whose endpoints sit in
// different domains becomes a cross-domain channel — its propagation stage
// is a Domain.Post with delay >= the engine lookahead instead of a local
// event. The packet pool is the topology's one free list, exactly as on a
// single Simulator: domains take turns on one goroutine, and Pool.Put zeroes
// what it recycles, so which struct a Get hands out is invisible to a run.
//
// Link administrative state (SetUp, SetRateBps) and route recomputation
// touch state that several domains read, so they are legal only at engine
// barriers (global events) — which is where scenario actions already run.

// enterDomain directs subsequent AddSwitch/AddHost calls at the engine's
// k-th domain — domain 0 on a one-domain engine. No-op on a single-Simulator
// topology.
func (t *Topology) enterDomain(k int) {
	if t.eng == nil {
		return
	}
	t.curDom = t.eng.Domain(k % t.eng.NumDomains())
}

// NodeDomain returns the event domain owning node id, or nil on a
// single-sim topology.
func (t *Topology) NodeDomain(id packet.NodeID) *sim.Domain {
	if t.eng == nil {
		return nil
	}
	return t.nodeDom[id]
}

// buildSim returns the Simulator new nodes should schedule on.
func (t *Topology) buildSim() *sim.Simulator {
	if t.eng != nil {
		return t.curDom.Simulator
	}
	return t.Sim
}

// recordNode captures the owning domain of the node just allocated.
func (t *Topology) recordNode() {
	if t.eng == nil {
		return
	}
	t.nodeDom = append(t.nodeDom, t.curDom)
}

// scheduleRecompute reruns ComputeRoutes after the reconvergence delay.
// Route tables are read by every domain, so on an engine the recompute is a
// global event (on several domains it runs at a barrier, between windows).
func (t *Topology) scheduleRecompute() {
	if t.RouteRecomputeDelay <= 0 {
		t.ComputeRoutes()
		return
	}
	if t.eng != nil {
		t.eng.GlobalAfter(t.RouteRecomputeDelay, t.ComputeRoutes)
		return
	}
	t.Sim.After(t.RouteRecomputeDelay, t.ComputeRoutes)
}

// BuildLeafSpineSharded constructs the leaf–spine fabric across the event
// domains of eng: one domain per leaf (owning the leaf switch and all its
// hosts — where nearly all events live), then one per spine, so eng must
// have Leaves+Spines domains. The only cross-domain links are the
// leaf<->spine trunks, whose propagation delay must be at least the engine
// lookahead. A one-domain engine holds every node and has no cross-domain
// link. The rest is buildLeafSpine, shared with BuildLeafSpine.
func BuildLeafSpineSharded(eng *sim.Engine, cfg LeafSpineConfig) *LeafSpine {
	if n := eng.NumDomains(); n != 1 && n != cfg.Leaves+cfg.Spines {
		panic(fmt.Sprintf("netem: %d event domains for %d leaves and %d spines", n, cfg.Leaves, cfg.Spines))
	}
	if d := cfg.trunkDelay(); d < eng.Lookahead() {
		panic(fmt.Sprintf("netem: trunk delay %v under engine lookahead %v", d, eng.Lookahead()))
	}
	t := NewTopology(nil)
	t.eng = eng
	return buildLeafSpine(t, cfg)
}
