package cluster

import (
	"fmt"

	"clove/internal/packet"
	"clove/internal/sim"
)

// IncastParams configures the partition–aggregate workload of Sec. 5.3: a
// single client requests a fixed response split evenly across n servers,
// which all answer simultaneously, stressing the client access link.
type IncastParams struct {
	// Fanout is the number of servers per request (the paper sweeps 1–16).
	Fanout int
	// ResponseBytes is the total response size per request (paper: 10 MB).
	ResponseBytes int64
	// Requests is how many sequential requests to issue.
	Requests int
	// MaxSimTime guards non-converging runs.
	MaxSimTime sim.Time
}

// IncastResult reports the client-side outcome.
type IncastResult struct {
	Completed  int
	Bytes      int64
	Elapsed    sim.Time
	GoodputBps float64 // client access-link goodput over the run
	TimedOut   bool
}

// RunIncast drives the incast workload: host 0 is the client; each request
// picks Fanout servers uniformly from the far leaf; all send
// ResponseBytes/Fanout concurrently; the next request issues when every
// shard of the previous one completes. The request chain runs on the
// client's shard; each response starts through startIncastShard.
func (c *Cluster) RunIncast(p IncastParams) IncastResult {
	if p.Fanout <= 0 || p.Requests <= 0 || p.ResponseBytes <= 0 {
		panic("cluster: incast parameters must be positive")
	}
	if p.Fanout > c.Cfg.Topo.HostsPerLeaf {
		panic(fmt.Sprintf("cluster: incast fanout %d exceeds the %d hosts of the server leaf", p.Fanout, c.Cfg.Topo.HostsPerLeaf))
	}
	if p.MaxSimTime == 0 {
		p.MaxSimTime = 600 * sim.Second
	}
	nHosts := c.Cfg.Topo.HostsPerLeaf
	client := packet.HostID(0)
	sh := &c.shards[c.shardOf(client)]
	s, rng := sh.sim, sh.sim.Rand()

	// Pre-open a persistent connection from every candidate server to the
	// client, and install paths for both directions.
	var pairs [][2]packet.HostID
	serverConns := make([]*Conn, nHosts)
	for i := 0; i < nHosts; i++ {
		server := packet.HostID(nHosts + i)
		serverConns[i] = c.OpenConn(server, client, 0)
		pairs = append(pairs, [2]packet.HostID{server, client}, [2]packet.HostID{client, server})
	}
	c.SetupPaths(pairs)

	res := IncastResult{}
	shard := p.ResponseBytes / int64(p.Fanout)
	if shard <= 0 {
		shard = 1
	}
	var issue func(remaining int)
	issue = func(remaining int) {
		if remaining == 0 {
			res.Elapsed = s.Now()
			s.Stop()
			return
		}
		// Choose Fanout distinct servers uniformly.
		perm := rng.Perm(nHosts)[:p.Fanout]
		pending := p.Fanout
		for _, si := range perm {
			conn := serverConns[si]
			c.startIncastShard(client, conn, shard, func(fct sim.Time) {
				if tr := sh.trace; tr != nil {
					tr.FCT(s.Now(), conn.Flow.Src, conn.Flow.Dst, shard, fct)
				}
				res.Bytes += shard
				pending--
				if pending == 0 {
					res.Completed++
					issue(remaining - 1)
				}
			})
		}
	}
	s.After(0, func() { issue(p.Requests) })
	c.Eng.Run(p.MaxSimTime)

	if res.Completed < p.Requests {
		res.TimedOut = true
		res.Elapsed = c.Eng.Now()
	}
	if res.Elapsed > 0 {
		res.GoodputBps = float64(res.Bytes) * 8 / res.Elapsed.Seconds()
	}
	return res
}
