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

// setupTelemetry wires and arms the tracer when Config.Telemetry is set.
// All polled streams iterate deterministic structures — the topology's link
// list, the host-indexed vswitch slice, sorted destination tables, the
// connection open-order list — never Go maps, so the captured records (and
// the exported trace bytes) are a pure function of the seed. When
// Config.Telemetry is nil this is a no-op and every telemetry call site in
// the hot path stays behind its single nil check.
func (c *Cluster) setupTelemetry() {
	tr := c.trace
	if tr == nil {
		return
	}
	links := c.LS.Links()
	for _, v := range c.VSwitches {
		v.SetTrace(tr)
	}

	// Metrics: ECN marks and queue-overflow drops, read from the links' own
	// counters when the trace is exported.
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

	// Stream: link queue occupancy plus cumulative ECN marks and drops, in
	// topology build order. Link.Name builds its string, so the names are
	// built once here rather than on every sample.
	names := make([]string, len(links))
	for i, l := range links {
		names[i] = l.Name()
	}
	tr.AddSampler(func(now sim.Time) {
		for i, l := range links {
			st := l.Stats()
			tr.QueueSample(now, l.ID(), names[i], l.QueueLen(), st.ECNMarks, st.Drops+st.DownDrops)
		}
	})

	// Stream: per-destination path weights, INT utilizations, and
	// congestion ages for every source hypervisor running a weight-table
	// policy.
	tr.AddSampler(func(now sim.Time) {
		for hi, v := range c.VSwitches {
			tv, ok := v.Policy().(tableVisitor)
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
	// (MPTCP samples each subflow). c.connList is in open order; the conns
	// map iterates in randomized order and must not drive sampling. A
	// connection that has not carried a job yet has no sender: it reports
	// what a never-started one does, read from one such sender under the
	// connection's own flows.
	fresh := tcp.NewSender(c.Sim, c.tcpCfg, packet.FiveTuple{}, nil)
	subflows := 1
	if c.Cfg.Scheme == SchemeMPTCP {
		subflows = tcp.DefaultSubflows
	}
	tr.AddSampler(func(now sim.Time) {
		for _, conn := range c.connList {
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
