package cluster

import (
	"fmt"

	"clove/internal/packet"
	"clove/internal/sim"
	"clove/internal/workload"
)

// MixParams configures a blended workload: every arriving job is one of four
// components — a web-search flow, an RPC (cache-follower) flow, an ML
// all-to-all transfer, or an incast partition–aggregate request — drawn with
// the configured probabilities. The blend is what scenario specs run: the
// paper's load sweep is the special case FracWebSearch=1.
type MixParams struct {
	// Load is the offered load as a fraction of the bisection bandwidth.
	Load float64
	// TotalJobs across all clients (composite ML/incast jobs count as one).
	TotalJobs int
	// SizeScale multiplies all component sizes (flow-size CDFs, MLBytes,
	// IncastBytes); smaller values keep packet-level simulation cheap.
	SizeScale float64

	// Component fractions; they must be non-negative and sum to 1 (the
	// scenario validator enforces the exact sum, this driver re-checks).
	FracWebSearch float64
	FracRPC       float64
	FracML        float64
	FracIncast    float64

	// IncastFanout servers answer each incast request (clamped to the
	// server count); IncastBytes is the total response size per request.
	IncastFanout int
	IncastBytes  int64
	// MLBytes is the total bytes one all-to-all job pushes from its client,
	// split evenly across every server.
	MLBytes int64

	// MaxSimTime guards non-converging runs (default 10 min sim time).
	MaxSimTime sim.Time
	// Warmup delays the first arrivals (prober path installation).
	Warmup sim.Time
}

// MixResult is the outcome of one blended run.
type MixResult struct {
	Completed int
	Issued    int
	// TimedOut reports that MaxSimTime elapsed before all jobs finished
	// (expected under unrecovered failures, which strand in-flight jobs).
	TimedOut bool
}

// job component indices, in cumulative-probability order.
const (
	mixWeb = iota
	mixRPC
	mixML
	mixIncast
)

// RunMix drives the blended workload to completion and records every job in
// c.Recorder. Each client keeps a persistent connection to every one of its
// servers (and, when incast is in the mix, each server one back), so ML
// all-to-all and incast use the same cached transports as the singleton
// flows. Who the clients and servers are depends on the fabric: see
// twoLeafMesh and rotatedMesh.
//
// Every client's arrival chain draws from the run's one RNG stream, in event
// order. Web, RPC, and ML jobs start on the client host; an incast request
// starts one response on each chosen server's reverse connection.
//
// Scenario event scripts schedule their link flaps, switch failures, and
// load ramps through ScheduleControl before calling RunMix; SetLoadScale
// takes effect on every inter-arrival gap drawn after the ramp fires.
func (c *Cluster) RunMix(p MixParams) MixResult {
	if p.SizeScale == 0 {
		p.SizeScale = 1
	}
	if p.MaxSimTime == 0 {
		p.MaxSimTime = 600 * sim.Second
	}
	fracSum := p.FracWebSearch + p.FracRPC + p.FracML + p.FracIncast
	if p.FracWebSearch < 0 || p.FracRPC < 0 || p.FracML < 0 || p.FracIncast < 0 ||
		fracSum < 0.999 || fracSum > 1.001 {
		panic(fmt.Sprintf("cluster: mix fractions must be >= 0 and sum to 1, got %v", fracSum))
	}
	if p.IncastBytes == 0 {
		p.IncastBytes = 1e6
	}
	if p.MLBytes == 0 {
		p.MLBytes = 1e6
	}

	webDist := workload.WebSearch()
	rpcDist := workload.CacheFollower()
	if p.SizeScale != 1 {
		webDist = webDist.Scaled(p.SizeScale)
		rpcDist = rpcDist.Scaled(p.SizeScale)
	}
	mlBytes := int64(float64(p.MLBytes) * p.SizeScale)
	incastBytes := int64(float64(p.IncastBytes) * p.SizeScale)
	if mlBytes <= 0 {
		mlBytes = 1
	}
	if incastBytes <= 0 {
		incastBytes = 1
	}
	c.Recorder.SetSizeScale(p.SizeScale)

	// Persistent connection meshes, fwd[client][k] and rev[client][k]. The
	// forward mesh carries web, RPC, and ML traffic; the reverse mesh
	// (servers answering clients) exists only when incast is in the blend.
	var fwd, rev [][]*Conn
	if c.Cfg.Topo.Leaves == 2 {
		fwd, rev = c.twoLeafMesh(p.FracIncast > 0)
	} else {
		fwd, rev = c.rotatedMesh(p.FracIncast > 0)
	}
	nClients, nServers := len(fwd), len(fwd[0])
	if p.IncastFanout <= 0 || p.IncastFanout > nServers {
		p.IncastFanout = nServers
	}

	// Arrival rate per client, from the blend's mean job footprint.
	meanJob := p.FracWebSearch*webDist.Mean() + p.FracRPC*rpcDist.Mean() +
		p.FracML*float64(mlBytes) + p.FracIncast*float64(incastBytes)
	rate := workload.ArrivalRateForLoad(p.Load, c.Cfg.Topo.BisectionBps(), nClients, meanJob)

	jobsPerClient := p.TotalJobs / nClients
	if jobsPerClient == 0 {
		jobsPerClient = 1
	}
	target := jobsPerClient * nClients

	var completed, issued int
	s, tr, rec := c.Sim, c.trace, c.Recorder
	rng := s.Rand()

	// One arrival chain per client.
	for ci := 0; ci < nClients; ci++ {
		ci := ci

		// Stop on target: the job that completes the run stops it.
		jobDone := func() {
			completed++
			if completed == target {
				s.Stop()
			}
		}
		// recordFlow finishes a singleton (web/RPC) job.
		recordFlow := func(conn *Conn, size int64) func(sim.Time) {
			return func(fct sim.Time) {
				rec.Add(size, fct)
				if tr != nil {
					tr.FCT(s.Now(), conn.Flow.Src, conn.Flow.Dst, size, fct)
				}
				jobDone()
			}
		}
		// recordShard traces one shard of a composite job and completes the
		// job when the last shard lands: the recorder sees one sample whose
		// FCT spans issue → slowest shard, the paper's partition–aggregate
		// metric.
		type composite struct {
			pending int
			total   int64
			start   sim.Time
		}
		recordShard := func(conn *Conn, comp *composite, shard int64) func(sim.Time) {
			return func(sim.Time) {
				if tr != nil {
					tr.FCT(s.Now(), conn.Flow.Src, conn.Flow.Dst, shard, s.Now()-comp.start)
				}
				comp.pending--
				if comp.pending == 0 {
					rec.Add(comp.total, s.Now()-comp.start)
					jobDone()
				}
			}
		}
		pick := func() int {
			u := rng.Float64()
			switch {
			case u < p.FracWebSearch:
				return mixWeb
			case u < p.FracWebSearch+p.FracRPC:
				return mixRPC
			case u < p.FracWebSearch+p.FracRPC+p.FracML:
				return mixML
			default:
				return mixIncast
			}
		}
		issueJob := func() {
			issued++
			switch pick() {
			case mixWeb:
				k := rng.Intn(nServers)
				size := webDist.Sample(rng)
				fwd[ci][k].StartJob(size, recordFlow(fwd[ci][k], size))
			case mixRPC:
				k := rng.Intn(nServers)
				size := rpcDist.Sample(rng)
				fwd[ci][k].StartJob(size, recordFlow(fwd[ci][k], size))
			case mixML:
				shard := mlBytes / int64(nServers)
				if shard <= 0 {
					shard = 1
				}
				comp := &composite{pending: nServers, total: shard * int64(nServers), start: s.Now()}
				for k := 0; k < nServers; k++ {
					fwd[ci][k].StartJob(shard, recordShard(fwd[ci][k], comp, shard))
				}
			case mixIncast:
				shard := incastBytes / int64(p.IncastFanout)
				if shard <= 0 {
					shard = 1
				}
				perm := rng.Perm(nServers)[:p.IncastFanout]
				comp := &composite{pending: p.IncastFanout, total: shard * int64(p.IncastFanout), start: s.Now()}
				for _, k := range perm {
					conn := rev[ci][k]
					conn.StartJob(shard, recordShard(conn, comp, shard))
				}
			}
		}
		// The inter-arrival gap is drawn at schedule time so a mid-run
		// SetLoadScale bends the process immediately.
		nextGap := func() sim.Time {
			return sim.FromSeconds(rng.ExpFloat64() / (rate * c.loadScale))
		}
		var issue func(remaining int)
		issue = func(remaining int) {
			if remaining == 0 {
				return
			}
			issueJob()
			s.After(nextGap(), func() { issue(remaining - 1) })
		}
		s.After(p.Warmup+nextGap(), func() { issue(jobsPerClient) })
	}

	s.RunUntil(p.MaxSimTime)

	res := MixResult{Completed: completed, Issued: issued}
	if res.Completed < target {
		res.TimedOut = true
	}
	return res
}

// twoLeafMesh opens the two-leaf mesh and installs its paths:
// clients are the hosts of leaf 1, servers those of leaf 2, fully meshed.
// All forward connections open before any reverse one; OpenConn order fixes
// the port numbers, so it must not change.
func (c *Cluster) twoLeafMesh(incast bool) (fwd, rev [][]*Conn) {
	n := c.Cfg.Topo.HostsPerLeaf
	var pairs [][2]packet.HostID
	fwd = make([][]*Conn, n)
	for ci := 0; ci < n; ci++ {
		fwd[ci] = make([]*Conn, n)
		for si := 0; si < n; si++ {
			client, server := packet.HostID(ci), packet.HostID(n+si)
			fwd[ci][si] = c.OpenConn(client, server, 0)
			pairs = append(pairs, [2]packet.HostID{client, server}, [2]packet.HostID{server, client})
		}
	}
	if incast {
		rev = make([][]*Conn, n)
		for ci := 0; ci < n; ci++ {
			rev[ci] = make([]*Conn, n)
			for si := 0; si < n; si++ {
				rev[ci][si] = c.OpenConn(packet.HostID(n+si), packet.HostID(ci), 0)
			}
		}
	}
	c.SetupPaths(pairs)
	return fwd, rev
}

// rotatedMesh opens the mesh of a larger fabric and installs its paths:
// every host is a client, and its servers are Config.ServersPerClient hosts
// on other leaves (the two-leaf full mesh would be quadratic at 1024 hosts),
// taken in host order rotated by the client index so load spreads evenly.
// Forward and reverse connections open interleaved; as in twoLeafMesh the
// order fixes the port numbers.
func (c *Cluster) rotatedMesh(incast bool) (fwd, rev [][]*Conn) {
	hostsPerLeaf := c.Cfg.Topo.HostsPerLeaf
	nHosts := c.Cfg.Topo.Leaves * hostsPerLeaf
	spc := c.Cfg.ServersPerClient
	maxSpc := nHosts - hostsPerLeaf // hosts on other leaves
	if spc <= 0 {
		spc = 32
	}
	if spc > maxSpc {
		spc = maxSpc
	}
	fwd = make([][]*Conn, nHosts)
	if incast {
		rev = make([][]*Conn, nHosts)
	}
	var pairs [][2]packet.HostID
	for ci := 0; ci < nHosts; ci++ {
		leaf := ci / hostsPerLeaf
		cand := make([]packet.HostID, 0, maxSpc)
		for h := 0; h < nHosts; h++ {
			if h/hostsPerLeaf != leaf {
				cand = append(cand, packet.HostID(h))
			}
		}
		fwd[ci] = make([]*Conn, spc)
		if rev != nil {
			rev[ci] = make([]*Conn, spc)
		}
		client := packet.HostID(ci)
		for k := 0; k < spc; k++ {
			server := cand[(ci+k)%len(cand)]
			fwd[ci][k] = c.OpenConn(client, server, 0)
			pairs = append(pairs, [2]packet.HostID{client, server}, [2]packet.HostID{server, client})
			if rev != nil {
				rev[ci][k] = c.OpenConn(server, client, 0)
			}
		}
	}
	c.SetupPaths(pairs)
	return fwd, rev
}

// AbortOpenConns tears down the transport of every open connection (see
// Conn.Abort); used by teardown tests and scenario runs that end with
// unrecovered failures, so the event queue can drain for the oracle's
// conservation audit.
func (c *Cluster) AbortOpenConns() {
	for _, conn := range c.connList {
		conn.Abort()
	}
}
