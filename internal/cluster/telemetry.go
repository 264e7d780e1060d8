package cluster

import (
	"clove/internal/clove"
	"clove/internal/netem"
	"clove/internal/packet"
	"clove/internal/sim"
	"clove/internal/tcp"
)

// tableVisitor is implemented by the Clove policies that keep per-destination
// weight tables (CloveECN, CloveINT); other schemes simply have no weight
// stream.
type tableVisitor interface {
	VisitTables(func(packet.HostID, *clove.WeightTable))
}

// setupTelemetry wires and arms each shard's tracer when Config.Telemetry is
// set. A tracer samples only state its own shard owns — links by source
// node, weight tables and senders by host — so on a sharded fabric every
// sample reads state at the sampling shard's own clock. All polled streams
// iterate deterministic structures — the topology's link list, the host-indexed
// vswitch slice, sorted destination tables, the shard's connection
// open-order list — never Go maps, so the captured records (and the
// exported trace bytes) are a pure function of the seed. When
// Config.Telemetry is nil this is a no-op and every telemetry call site in
// the hot path stays behind its single nil check.
func (c *Cluster) setupTelemetry() {
	if c.Cfg.Telemetry == nil {
		return
	}
	shardLinks := make([][]*netem.Link, len(c.shards))
	for _, l := range c.LS.Links() {
		i := c.shardOfNode(l.From())
		shardLinks[i] = append(shardLinks[i], l)
	}
	shardHosts := make([][]int, len(c.shards))
	for hi, v := range c.VSwitches {
		i := c.shardOf(packet.HostID(hi))
		shardHosts[i] = append(shardHosts[i], hi)
		v.SetTrace(c.shards[i].trace)
	}

	for i := range c.shards {
		sh := &c.shards[i]
		tr, links, hosts := sh.trace, shardLinks[i], shardHosts[i]

		// Metrics: the shard's ECN marks and queue-overflow drops, read
		// from its links' own counters when the trace is exported.
		linkTotal := func(field func(netem.LinkStats) int64) func() int64 {
			return func() int64 {
				var n int64
				for _, l := range links {
					n += field(l.Stats())
				}
				return n
			}
		}
		tr.AddMetric("netem.ecn_marks", linkTotal(func(st netem.LinkStats) int64 { return st.ECNMarks }))
		tr.AddMetric("netem.drops", linkTotal(func(st netem.LinkStats) int64 { return st.Drops }))

		// Stream: link queue occupancy plus cumulative ECN marks and drops,
		// for the shard's links in topology build order.
		tr.AddSampler(func(now sim.Time) {
			for _, l := range links {
				st := l.Stats()
				tr.QueueSample(now, l.ID(), l.Name(), l.QueueLen(), st.ECNMarks, st.Drops+st.DownDrops)
			}
		})

		// Stream: per-destination path weights, INT utilizations, and
		// congestion ages for every source hypervisor running a
		// weight-table policy.
		tr.AddSampler(func(now sim.Time) {
			for _, hi := range hosts {
				tv, ok := c.VSwitches[hi].Policy().(tableVisitor)
				if !ok {
					continue
				}
				srcID := packet.HostID(hi)
				tv.VisitTables(func(dst packet.HostID, t *clove.WeightTable) {
					t.VisitStates(func(p clove.PathState) {
						age := sim.Time(-1) // never congested
						if p.LastCongested > 0 {
							age = now - p.LastCongested
						}
						tr.WeightSample(now, srcID, dst, p.Port, p.Weight, p.Util, age)
					})
				})
			}
		})

		// Stream: sender cwnd/ssthresh/RTO/outstanding for every connection
		// whose client lives here (MPTCP samples each subflow). sh.conns is
		// in open order; the conns map iterates in randomized order and must
		// not drive sampling. A connection that has not carried a job yet has
		// no sender: it reports what a never-started one does, read from one
		// such sender per shard under the connection's own flows.
		fresh := tcp.NewSender(sh.sim, c.tcpCfg, packet.FiveTuple{}, nil)
		subflows := 1
		if c.Cfg.Scheme == SchemeMPTCP {
			subflows = tcp.DefaultSubflows
		}
		tr.AddSampler(func(now sim.Time) {
			for _, conn := range sh.conns {
				if conn.opened() {
					conn.eachSender(func(s *tcp.Sender) {
						tr.CwndSample(now, s.Flow(), s.Cwnd(), s.Ssthresh(), s.RTO(), s.Outstanding())
					})
					continue
				}
				for i := 0; i < subflows; i++ {
					f := conn.Flow
					f.SrcPort += uint16(i)
					tr.CwndSample(now, f, fresh.Cwnd(), fresh.Ssthresh(), fresh.RTO(), fresh.Outstanding())
				}
			}
		})

		tr.Start()
	}
}
