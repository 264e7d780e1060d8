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
// event. Each domain also gets its own packet.Pool; a packet that crosses
// domains is simply recycled into the receiving domain's pool (pools are
// plain free lists — buffers migrate).
//
// Ownership rules for cross-domain packets:
//
//   - the source domain owns the packet until the propagation Post fires;
//     after Post is buffered the source must not touch it again;
//   - the destination domain owns it from delivery on, including returning
//     it to (its own) pool;
//   - link administrative state (SetUp, SetRateBps) and route recomputation
//     mutate both sides, so they are legal only at engine barriers (global
//     events) — which is where scenario actions already run.

// enterDomain directs subsequent AddSwitch/AddHost calls at the engine's
// k-th domain and its pool. No-op on a single-Simulator topology.
func (t *Topology) enterDomain(k int) {
	if t.eng == nil {
		return
	}
	t.curDom, t.curPool = t.eng.Domain(k), t.pools[k]
}

// Engine returns the engine a sharded topology runs on (nil otherwise).
func (t *Topology) Engine() *sim.Engine { return t.eng }

// Pools returns every packet pool of the topology: the single shared pool
// in single-sim mode, or one pool per domain (domain creation order) in
// sharded mode. Observers (the oracle) must be installed on all of them.
func (t *Topology) Pools() []*packet.Pool {
	if t.eng == nil {
		return []*packet.Pool{t.pool}
	}
	return t.pools
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

// buildPool returns the pool new nodes should draw from.
func (t *Topology) buildPool() *packet.Pool {
	if t.eng != nil {
		return t.curPool
	}
	return t.pool
}

// recordNode captures the owning domain of the node just allocated.
func (t *Topology) recordNode() {
	if t.eng == nil {
		return
	}
	t.nodeDom = append(t.nodeDom, t.curDom)
	t.nodePool = append(t.nodePool, t.curPool)
}

// scheduleRecompute reruns ComputeRoutes after the reconvergence delay.
// Route tables are read by every domain, so in sharded mode the recompute
// is a global event (it runs at a barrier, between windows).
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

// BuildLeafSpineSharded constructs the leaf–spine fabric across event
// domains of eng, which must not have any yet: one domain per leaf (owning
// the leaf switch and all its hosts — where nearly all events live), then
// one per spine, each with its own packet pool. The only cross-domain links
// are the leaf<->spine trunks, whose propagation delay must be at least the
// engine lookahead. Everything else is BuildLeafSpine's builder body.
func BuildLeafSpineSharded(eng *sim.Engine, cfg LeafSpineConfig) *LeafSpine {
	if d := cfg.trunkDelay(); d < eng.Lookahead() {
		panic(fmt.Sprintf("netem: trunk delay %v under engine lookahead %v", d, eng.Lookahead()))
	}
	t := &Topology{eng: eng, byName: map[string]*Link{}}
	for i := 0; i < cfg.Leaves+cfg.Spines; i++ {
		eng.AddDomain()
		t.pools = append(t.pools, &packet.Pool{})
	}
	return buildLeafSpine(t, cfg)
}
