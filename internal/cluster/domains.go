package cluster

import (
	"fmt"
	"path/filepath"

	"clove/internal/packet"
	"clove/internal/sim"
	"clove/internal/telemetry"
)

// shard is one event domain's slice of a run: the Simulator everything in
// the domain schedules on and the tracer sampling the domain's own state.
// There is one per sim.Engine domain, in domain order — exactly one on a
// two-leaf fabric. Everything a host schedules lands on its own shard's
// Simulator; the only cross-shard interactions are trunk-link propagation
// (netem) and the incast hand-off (startIncastShard), both via Domain.Post.
type shard struct {
	sim   *sim.Simulator
	trace *telemetry.Tracer // nil unless Config.Telemetry
	// conns are the connections whose client lives here, in open order:
	// what the tracer's cwnd stream samples and its tcp.* metrics sum.
	// Maintained only when traced.
	conns []*Conn
}

func newShard(s *sim.Simulator, tcfg *telemetry.Config) shard {
	sh := shard{sim: s}
	if tcfg != nil {
		sh.trace = telemetry.NewTracer(s, *tcfg)
	}
	return sh
}

// shardOfNode returns the index in c.shards of the shard owning fabric node
// id: its event domain's ID.
func (c *Cluster) shardOfNode(id packet.NodeID) int { return c.LS.NodeDomain(id).ID() }

// shardOf returns the index in c.shards of the shard owning host h.
func (c *Cluster) shardOf(h packet.HostID) int { return c.shardOfNode(c.LS.Host(h).ID()) }

// simFor returns the Simulator everything on host h must schedule on.
func (c *Cluster) simFor(h packet.HostID) *sim.Simulator { return c.shards[c.shardOf(h)].sim }

// domFor returns the event domain owning host h.
func (c *Cluster) domFor(h packet.HostID) *sim.Domain { return c.LS.Host(h).Domain() }

// ScheduleControl schedules a control-plane action (scenario link flaps,
// load ramps) at absolute time at, as an engine global: control actions
// touch state in many domains, so on a sharded fabric they run between
// windows, with every domain clock at the same time. On a two-leaf fabric
// the action is an ordinary event at at, after the events already
// scheduled there and before those scheduled later.
func (c *Cluster) ScheduleControl(at sim.Time, fn func()) { c.Eng.GlobalAt(at, fn) }

// ExportTraces writes the run's trace files under dir: a one-domain run's
// files directly, or one domain-NN subdirectory per event domain on a
// sharded fabric. No-op when telemetry is disabled.
func (c *Cluster) ExportTraces(dir string) error {
	if len(c.shards) == 1 {
		return c.shards[0].trace.Export(dir)
	}
	for i := range c.shards {
		if err := c.shards[i].trace.Export(filepath.Join(dir, fmt.Sprintf("domain-%02d", i))); err != nil {
			return err
		}
	}
	return nil
}
