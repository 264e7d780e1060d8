package cluster

import (
	"clove/internal/packet"
	"clove/internal/sim"
	"clove/internal/workload"
)

// WebSearchParams configures the paper's main workload (Sec. 5): clients on
// one leaf send flows drawn from the web-search size distribution to random
// servers on the other leaf, over persistent connections, with Poisson
// arrivals tuned to a target fraction of the bisection bandwidth.
type WebSearchParams struct {
	// Load is the offered load as a fraction of the bisection bandwidth
	// (the paper sweeps 0.2–0.9).
	Load float64
	// TotalJobs across all connections (the testbed used 50K per
	// connection; simulations use scaled counts).
	TotalJobs int
	// ConnsPerClient persistent connections each client opens (testbed 1,
	// NS2 simulations 3).
	ConnsPerClient int
	// SizeScale multiplies flow sizes (1.0 = paper sizes); smaller values
	// keep packet-level simulation cheap while preserving the shape.
	SizeScale float64
	// MaxSimTime guards against non-converging runs (default 10 min sim
	// time): the run stops and unfinished jobs are dropped from the stats.
	MaxSimTime sim.Time
}

// WebSearchResult is the outcome of one run.
type WebSearchResult struct {
	Completed int
	Issued    int
	// TimedOut reports that MaxSimTime elapsed before all jobs finished.
	TimedOut bool
}

// RunWebSearch drives the workload to completion and records every job's
// FCT in c.Recorder. Clients are the hosts of leaf 1, servers of leaf 2.
// Every arrival chain draws from the run's one RNG stream.
func (c *Cluster) RunWebSearch(p WebSearchParams) WebSearchResult {
	if p.ConnsPerClient == 0 {
		p.ConnsPerClient = 1
	}
	if p.SizeScale == 0 {
		p.SizeScale = 1
	}
	if p.MaxSimTime == 0 {
		p.MaxSimTime = 600 * sim.Second
	}
	dist := workload.WebSearch()
	if p.SizeScale != 1 {
		dist = dist.Scaled(p.SizeScale)
	}
	// The recorder's mice/elephant cutoffs track the size scale so scaled
	// runs still populate the paper's Fig. 5 buckets.
	c.Recorder.SetSizeScale(p.SizeScale)

	nHosts := c.Cfg.Topo.HostsPerLeaf
	s, rng := c.Sim, c.Sim.Rand()

	// Clients on leaf 1 pick random servers on leaf 2 (persistent).
	type cw struct {
		conn     *Conn
		arrivals *workload.PoissonArrivals
	}
	var conns []*cw
	var pairs [][2]packet.HostID
	nConns := nHosts * p.ConnsPerClient
	meanFlow := dist.Mean()
	rate := workload.ArrivalRateForLoad(p.Load, c.Cfg.Topo.BisectionBps(), nConns, meanFlow)

	// Clients pair with servers by random permutation, one permutation per
	// connection round: every server terminates exactly ConnsPerClient
	// connections, so the offered load (measured against the bisection)
	// never oversubscribes an access link by construction and the fabric
	// is the contention point — the regime the paper's load sweep studies.
	perms := make([][]int, p.ConnsPerClient)
	for k := range perms {
		perms[k] = rng.Perm(nHosts)
	}
	for ci := 0; ci < nHosts; ci++ {
		client := packet.HostID(ci)
		for k := 0; k < p.ConnsPerClient; k++ {
			server := packet.HostID(nHosts + perms[k][ci])
			conn := c.OpenConn(client, server, k)
			conns = append(conns, &cw{
				conn:     conn,
				arrivals: workload.NewPoissonArrivals(rng, rate),
			})
			pairs = append(pairs, [2]packet.HostID{client, server})
			// The server's ACK stream also benefits from discovered paths.
			pairs = append(pairs, [2]packet.HostID{server, client})
		}
	}
	c.SetupPaths(pairs)

	res := WebSearchResult{}
	jobsPerConn := p.TotalJobs / len(conns)
	if jobsPerConn == 0 {
		jobsPerConn = 1
	}
	target := jobsPerConn * len(conns)
	record := func(conn *Conn, size int64) func(sim.Time) {
		return func(fct sim.Time) {
			c.Recorder.Add(size, fct)
			if tr := c.trace; tr != nil {
				tr.FCT(s.Now(), conn.Flow.Src, conn.Flow.Dst, size, fct)
			}
			res.Completed++
			if res.Completed == target {
				s.Stop()
			}
		}
	}
	// Schedule each connection's arrival chain.
	for _, w := range conns {
		w := w
		var issue func(remaining int)
		issue = func(remaining int) {
			if remaining == 0 {
				return
			}
			size := dist.Sample(rng)
			if size <= 0 {
				size = 1
			}
			res.Issued++
			w.conn.StartJob(size, record(w.conn, size))
			s.After(w.arrivals.Next(), func() { issue(remaining - 1) })
		}
		s.After(w.arrivals.Next(), func() { issue(jobsPerConn) })
	}

	s.RunUntil(p.MaxSimTime)
	// Against target, not Issued: a run cut off between arrivals has
	// completed everything it issued and still fell short.
	if res.Completed < target {
		res.TimedOut = true
	}
	return res
}
