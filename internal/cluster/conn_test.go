package cluster

import (
	"testing"

	"clove/internal/packet"
	"clove/internal/sim"
	"clove/internal/tcp"
	"clove/internal/telemetry"
	"clove/internal/vswitch"
)

// handled reports whether host's vswitch has an endpoint for tuple under
// handle h (0: by tuple alone): it hands the vswitch a bare data segment of
// that tuple and handle and checks it was not dropped as unhandled.
func handled(c *Cluster, host packet.HostID, tuple packet.FiveTuple, h packet.FlowHandle) bool {
	v := c.VSwitches[host]
	before := v.Stats().NoHandler
	p := c.LS.Pool().Get()
	p.Kind = packet.KindData
	p.Inner = tuple
	p.Flow = h
	p.Seq = 1 << 40 // far past anything sent: a receiver only buffers it
	p.PayloadLen = 1
	v.FromNetwork(p)
	return v.Stats().NoHandler == before
}

// TestMeshWithoutJobsOpensNoTransport: naming a connection builds no
// transport. A mesh that carries no job registers no endpoint at either
// vswitch, for any subflow, and reports zero transport totals.
func TestMeshWithoutJobsOpensNoTransport(t *testing.T) {
	for _, scheme := range []Scheme{SchemeCloveECN, SchemeMPTCP} {
		t.Run(string(scheme), func(t *testing.T) {
			c := New(Config{Seed: 1, Topo: smallTopo(), Scheme: scheme})
			fwd, rev := c.twoLeafMesh(true)
			subflows := 1
			if scheme == SchemeMPTCP {
				subflows = tcp.DefaultSubflows
			}
			for _, mesh := range [][][]*Conn{fwd, rev} {
				for _, row := range mesh {
					for _, conn := range row {
						for i := 0; i < subflows; i++ {
							f := conn.Flow
							f.SrcPort += uint16(i)
							if handled(c, conn.Flow.Dst, f, 0) || handled(c, conn.Flow.Src, f.Reverse(), 0) {
								t.Fatalf("unused connection %v has an endpoint", f)
							}
						}
					}
				}
			}
			if n := c.flows.Len(); n != 0 {
				t.Fatalf("an unused mesh opened %d flow handles", n)
			}
			if st := c.TransportStats(); st != (tcp.SenderStats{}) {
				t.Fatalf("transport stats of an unused mesh: %+v", st)
			}
		})
	}
}

// TestFirstJobOpensTransportOnce: the first job registers the connection's
// endpoints, and later jobs continue the same transport — every job
// completes and the totals count each byte once.
func TestFirstJobOpensTransportOnce(t *testing.T) {
	for _, scheme := range []Scheme{SchemeCloveECN, SchemeMPTCP} {
		t.Run(string(scheme), func(t *testing.T) {
			c := New(Config{Seed: 1, Topo: smallTopo(), Scheme: scheme})
			c.SetupPaths([][2]packet.HostID{{0, 4}, {4, 0}})
			conn := c.OpenConn(0, 4, 0)
			done := 0
			for i := 0; i < 3; i++ {
				conn.StartJob(200_000, func(sim.Time) { done++ })
			}
			c.Sim.RunUntil(sim.Second)
			conn.StartJob(200_000, func(sim.Time) { done++ })
			c.Sim.RunUntil(2 * sim.Second)
			if done != 4 {
				t.Fatalf("%d of 4 jobs completed", done)
			}
			if got := c.TransportStats().BytesAcked; got != 800_000 {
				t.Fatalf("bytes acked %d, want 800000", got)
			}
			conn.eachSender(func(s *tcp.Sender) {
				h := s.FlowHandle()
				if h == 0 || !handled(c, conn.Flow.Dst, s.Flow(), h) || !handled(c, conn.Flow.Src, s.Flow().Reverse(), h^1) {
					t.Fatalf("a connection that carried jobs has no endpoint for %v (handle %d)", s.Flow(), h)
				}
			})
		})
	}
}

// TestAbortBeforeFirstJobDropsLaterJobs: a connection aborted before it
// ever carried a job drops every later job, as an aborted sender does, and
// sends nothing.
func TestAbortBeforeFirstJobDropsLaterJobs(t *testing.T) {
	for _, scheme := range []Scheme{SchemeCloveECN, SchemeMPTCP} {
		t.Run(string(scheme), func(t *testing.T) {
			c := New(Config{Seed: 1, Topo: smallTopo(), Scheme: scheme, Oracle: true})
			c.SetupPaths([][2]packet.HostID{{0, 4}, {4, 0}})
			conn := c.OpenConn(0, 4, 0)
			conn.Abort()
			conn.StartJob(100_000, func(sim.Time) { t.Error("job on an aborted connection completed") })
			c.Quiesce()
			c.Sim.RunUntil(drain)
			if st := c.TransportStats(); st.SegmentsSent != 0 {
				t.Fatalf("aborted connection sent %d segments", st.SegmentsSent)
			}
			if err := c.CheckOracle(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTracedCwndOfUnusedConnIsFresh: the cwnd stream samples every
// connection, used or not, and a connection
// that never carried a job reports exactly what a never-started sender
// does, for each of its subflows.
func TestTracedCwndOfUnusedConnIsFresh(t *testing.T) {
	for _, scheme := range []Scheme{SchemeCloveECN, SchemeMPTCP} {
		t.Run(string(scheme), func(t *testing.T) {
			c := New(Config{
				Seed: 1, Topo: smallTopo(), Scheme: scheme,
				Telemetry: &telemetry.Config{Interval: 100 * sim.Microsecond},
			})
			c.SetupPaths([][2]packet.HostID{{0, 4}, {4, 0}, {1, 5}, {5, 1}})
			used, unused := c.OpenConn(0, 4, 0), c.OpenConn(1, 5, 0)
			used.StartJob(500_000, nil)
			c.Sim.RunUntil(5 * sim.Millisecond)

			fresh := tcp.NewSender(c.Sim, tcp.DefaultConfig(), unused.Flow, nil)
			want := map[packet.FiveTuple]bool{}
			subflows := 1
			if scheme == SchemeMPTCP {
				subflows = tcp.DefaultSubflows
			}
			for i := 0; i < subflows; i++ {
				f := unused.Flow
				f.SrcPort += uint16(i)
				want[f] = true
			}
			seen, busy := map[packet.FiveTuple]int{}, false
			for _, s := range c.trace.Cwnds() {
				if s.Flow.Src == used.Flow.Src && s.Outstanding > 0 {
					busy = true
				}
				if s.Flow.Src != unused.Flow.Src {
					continue
				}
				if !want[s.Flow] {
					t.Fatalf("sample for unknown flow %v", s.Flow)
				}
				seen[s.Flow]++
				if s.Cwnd != fresh.Cwnd() || s.Ssthresh != fresh.Ssthresh() || s.RTO != fresh.RTO() || s.Outstanding != 0 {
					t.Fatalf("unused connection sample %+v, want cwnd %v ssthresh %v rto %v outstanding 0",
						s, fresh.Cwnd(), fresh.Ssthresh(), fresh.RTO())
				}
			}
			if !busy {
				t.Fatal("the used connection was never sampled with data outstanding")
			}
			for f := range want {
				if seen[f] < 40 {
					t.Fatalf("flow %v sampled %d times in 5 ms at 100 µs", f, seen[f])
				}
			}
		})
	}
}

// TestOpenConnAllocs: naming a connection costs its Conn record and its
// entries in the cluster's tables (amortized), not a transport.
func TestOpenConnAllocs(t *testing.T) {
	c := New(Config{Seed: 1, Topo: smallTopo(), Scheme: SchemeCloveECN})
	idx := 0
	allocs := testing.AllocsPerRun(200, func() {
		c.OpenConn(0, 4, idx)
		idx++
	})
	if allocs > 2 {
		t.Fatalf("OpenConn allocates %v times per connection, want at most 2 (the Conn and a map entry)", allocs)
	}
}

// firstJobRig names 201 unused connections between one host pair and
// returns a step that opens the next one's transport, as its first job
// does before sending.
func firstJobRig() func() {
	c := New(Config{Seed: 1, Topo: smallTopo(), Scheme: SchemeCloveECN})
	for idx := 0; idx <= 200; idx++ {
		c.OpenConn(0, 4, idx)
	}
	i := 0
	return func() {
		conn := c.connList[i%len(c.connList)]
		i++
		if conn.opened() {
			// Out of unused connections (a long benchmark): forget the
			// transport and open it again, in an emptied flow table, which
			// would otherwise grow by a pair of handles per open.
			conn.tp = nil
			if i%len(c.connList) == 1 {
				c.flows = vswitch.Flows{}
			}
		}
		conn.open()
	}
}

// TestFirstJobAllocatesOneRecord: the first job builds the connection's
// transport as one record — sender and receiver by value, registered at
// both vswitches through static handlers with no closure each.
func TestFirstJobAllocatesOneRecord(t *testing.T) {
	if allocs := testing.AllocsPerRun(200, firstJobRig()); allocs > 1 {
		t.Fatalf("opening a transport allocates %v times, want at most 1", allocs)
	}
}

// BenchmarkConnFirstJobOpen prices what a connection's first job adds over
// any later one: building its transport record and registering both
// endpoints. It fails on more than one allocation per open; the CI
// bench-smoke job runs it.
func BenchmarkConnFirstJobOpen(b *testing.B) {
	step := firstJobRig()
	if allocs := testing.AllocsPerRun(200, step); allocs > 1 {
		b.Fatalf("opening a transport allocates %v times, want at most 1", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
