package cluster

import (
	"fmt"
	"strings"
	"testing"

	"clove/internal/netem"
	"clove/internal/packet"
	"clove/internal/sim"
)

// smallTopo shrinks the fabric to 4 hosts per leaf at full 10G link rate,
// preserving the paper's non-oversubscription ratio. Full rate keeps the
// queueing-delay-to-RTT ratio faithful; simulation cost scales with packet
// count (flow sizes and job counts), not bandwidth.
func smallTopo() netem.LeafSpineConfig {
	return netem.ScaledTestbed(1.0, 4) // 10 Gbps hosts, 10 Gbps trunks
}

func smallWS(load float64) WebSearchParams {
	return WebSearchParams{
		Load:       load,
		TotalJobs:  40,
		SizeScale:  0.02, // mean ~32KB
		MaxSimTime: 120 * sim.Second,
	}
}

func TestWebSearchRunsEveryScheme(t *testing.T) {
	for _, scheme := range AllSchemes() {
		scheme := scheme
		t.Run(string(scheme), func(t *testing.T) {
			c := New(Config{Seed: 7, Topo: smallTopo(), Scheme: scheme})
			res := c.RunWebSearch(smallWS(0.4))
			if res.Completed == 0 {
				t.Fatalf("no jobs completed (issued %d)", res.Issued)
			}
			if res.TimedOut {
				t.Errorf("run timed out: %d/%d", res.Completed, res.Issued)
			}
			if c.Recorder.Count() != res.Completed {
				t.Errorf("recorder has %d, completed %d", c.Recorder.Count(), res.Completed)
			}
			if c.Recorder.Mean() <= 0 {
				t.Error("non-positive mean FCT")
			}
		})
	}
}

func TestWebSearchAsymmetricEveryScheme(t *testing.T) {
	for _, scheme := range []Scheme{SchemeECMP, SchemeCloveECN, SchemeCONGA, SchemePresto} {
		scheme := scheme
		t.Run(string(scheme), func(t *testing.T) {
			c := New(Config{
				Seed: 8, Topo: smallTopo(), Scheme: scheme,
				AsymmetricFailure:  true,
				PrestoIdealWeights: scheme == SchemePresto,
			})
			res := c.RunWebSearch(smallWS(0.3))
			if res.Completed == 0 || res.TimedOut {
				t.Fatalf("asym run failed: %+v", res)
			}
		})
	}
}

func TestCloveECNBeatsECMPUnderAsymmetryAtHighLoad(t *testing.T) {
	// The paper's headline: under asymmetry at high load, Clove-ECN's FCT
	// is far lower than ECMP's. Use a modest scale but real contention.
	run := func(scheme Scheme) float64 {
		c := New(Config{Seed: 11, Topo: smallTopo(), Scheme: scheme, AsymmetricFailure: true})
		res := c.RunWebSearch(WebSearchParams{
			Load: 0.65, TotalJobs: 400, SizeScale: 0.05,
			MaxSimTime: 300 * sim.Second,
		})
		if res.Completed < res.Issued*8/10 {
			t.Fatalf("%s: only %d/%d completed", scheme, res.Completed, res.Issued)
		}
		return c.Recorder.Mean()
	}
	ecmp := run(SchemeECMP)
	cloveECN := run(SchemeCloveECN)
	t.Logf("asym 60%% load: ecmp=%.4fs clove-ecn=%.4fs", ecmp, cloveECN)
	if cloveECN >= ecmp {
		t.Errorf("Clove-ECN (%.4fs) not better than ECMP (%.4fs) under asymmetry", cloveECN, ecmp)
	}
}

func TestProberDiscoveryPathsMatchOracle(t *testing.T) {
	// The same cluster with prober vs oracle must install port sets that
	// map to the same set of first-hop links.
	firstHops := func(useProber bool) map[packet.LinkID]bool {
		c := New(Config{Seed: 9, Topo: smallTopo(), Scheme: SchemeCloveECN, UseProber: useProber})
		pairs := [][2]packet.HostID{{0, 4}}
		c.SetupPaths(pairs)
		c.Sim.RunUntil(sim.Second) // let the prober finish a round
		ports := c.DiscoveredPorts(0, 4)
		if len(ports) == 0 {
			t.Fatalf("no ports (prober=%v)", useProber)
		}
		hops := map[packet.LinkID]bool{}
		leaf := c.LS.Leaves[0]
		for _, port := range ports {
			p := &packet.Packet{Encap: &packet.Encap{SrcHyp: 0, DstHyp: 4, SrcPort: port, DstPort: 7471}}
			hops[leaf.RoutePreview(p).ID()] = true
		}
		return hops
	}
	oracle := firstHops(false)
	probed := firstHops(true)
	if len(oracle) != 4 || len(probed) != 4 {
		t.Errorf("first-hop coverage: oracle=%d probed=%d, want 4", len(oracle), len(probed))
	}
}

// TestOracleWalkEndsAtDst: the oracle's trace counts only when it reaches
// the destination over that host's downlink; one that reaches another host
// does not count.
func TestOracleWalkEndsAtDst(t *testing.T) {
	c := New(Config{Seed: 9, Topo: smallTopo(), Scheme: SchemeCloveECN})
	p := &packet.Packet{Kind: packet.KindData, Encap: &packet.Encap{SrcHyp: 0, DstHyp: 4, SrcPort: 33000, DstPort: 7471}}
	links, ok := c.walk(0, 4, p, nil)
	if !ok || links[len(links)-1] != c.LS.Host(4).Downlink().ID() {
		t.Fatalf("trace to host 4: ok=%v links %v, want it to end on the host's downlink", ok, links)
	}
	if links, ok := c.walk(0, 5, p, nil); ok {
		t.Errorf("a trace that reaches host 4 (links %v) counted as reaching host 5", links)
	}
}

func TestIncastRuns(t *testing.T) {
	for _, scheme := range []Scheme{SchemeCloveECN, SchemeEdgeFlowlet, SchemeMPTCP} {
		scheme := scheme
		t.Run(string(scheme), func(t *testing.T) {
			c := New(Config{Seed: 10, Topo: smallTopo(), Scheme: scheme})
			res := c.RunIncast(IncastParams{
				Fanout: 3, ResponseBytes: 100_000, Requests: 5,
				MaxSimTime: 120 * sim.Second,
			})
			if res.TimedOut || res.Completed != 5 {
				t.Fatalf("incast failed: %+v", res)
			}
			if res.GoodputBps <= 0 {
				t.Error("no goodput")
			}
			if res.Bytes < 5*100_000*9/10 {
				t.Errorf("bytes = %d", res.Bytes)
			}
		})
	}
}

func TestIncastFanoutHurtsMPTCPMoreThanClove(t *testing.T) {
	run := func(scheme Scheme, fanout int) float64 {
		c := New(Config{Seed: 12, Topo: smallTopo(), Scheme: scheme})
		res := c.RunIncast(IncastParams{
			Fanout: fanout, ResponseBytes: 400_000, Requests: 8,
			MaxSimTime: 300 * sim.Second,
		})
		if res.TimedOut {
			t.Fatalf("%s fanout %d timed out", scheme, fanout)
		}
		return res.GoodputBps
	}
	cloveHi := run(SchemeCloveECN, 4)
	mptcpHi := run(SchemeMPTCP, 4)
	t.Logf("incast fanout 4: clove=%.1f Mbps mptcp=%.1f Mbps", cloveHi/1e6, mptcpHi/1e6)
	if mptcpHi > cloveHi*1.5 {
		t.Errorf("MPTCP (%.0f) should not dominate Clove (%.0f) under incast", mptcpHi, cloveHi)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() float64 {
		c := New(Config{Seed: 5, Topo: smallTopo(), Scheme: SchemeCloveECN})
		c.RunWebSearch(smallWS(0.4))
		return c.Recorder.Mean()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed gave different means: %v vs %v", a, b)
	}
	c := New(Config{Seed: 6, Topo: smallTopo(), Scheme: SchemeCloveECN})
	c.RunWebSearch(smallWS(0.4))
	if c.Recorder.Mean() == run() {
		t.Error("different seeds gave identical means (suspicious)")
	}
}

// TestCutOffBeforeTargetIsTimedOut pins that a run MaxSimTime cuts off
// before its target — everything issued so far may have completed, the
// target has not been reached — reports TimedOut from every driver.
// RunWebSearch used to compare against Issued and report success.
func TestCutOffBeforeTargetIsTimedOut(t *testing.T) {
	drivers := []struct {
		name string
		run  func(c *Cluster) (completed, issued int, timedOut bool)
	}{
		{"RunWebSearch", func(c *Cluster) (int, int, bool) {
			p := smallWS(0.4)
			p.MaxSimTime = 1
			res := c.RunWebSearch(p)
			return res.Completed, res.Issued, res.TimedOut
		}},
		{"RunMix", func(c *Cluster) (int, int, bool) {
			p := fourLeafMix()
			p.MaxSimTime = 1
			res := c.RunMix(p)
			return res.Completed, res.Issued, res.TimedOut
		}},
		// IncastResult has no Issued: the closed loop issues its first
		// request at time 0, and that request is cut off.
		{"RunIncast", func(c *Cluster) (int, int, bool) {
			res := c.RunIncast(IncastParams{Fanout: 2, ResponseBytes: 1e5, Requests: 1, MaxSimTime: 1})
			return res.Completed, 0, res.TimedOut
		}},
	}
	for _, d := range drivers {
		c := New(Config{Seed: 1, Topo: smallTopo(), Scheme: SchemeECMP})
		completed, issued, timedOut := d.run(c)
		if completed != 0 || issued != 0 {
			t.Fatalf("%s: %d/%d jobs within 1 ns of sim time", d.name, completed, issued)
		}
		if !timedOut {
			t.Errorf("%s: cut off before the first arrival but TimedOut = false", d.name)
		}
	}
}

// TestCutOffIncastCountsDeliveredShards pins that IncastResult.Bytes counts
// every delivered shard, also those of a request the cut-off left
// unfinished: cut 1 ns before the last shard lands, the others are in.
func TestCutOffIncastCountsDeliveredShards(t *testing.T) {
	p := IncastParams{Fanout: 4, ResponseBytes: 4e5, Requests: 1}
	run := func(p IncastParams) IncastResult {
		return New(Config{Seed: 1, Topo: smallTopo(), Scheme: SchemeECMP}).RunIncast(p)
	}
	full := run(p)
	if full.TimedOut || full.Bytes != p.ResponseBytes {
		t.Fatalf("uncut run: %+v", full)
	}
	p.MaxSimTime = full.Elapsed - 1
	cut := run(p)
	shard := p.ResponseBytes / int64(p.Fanout)
	if !cut.TimedOut || cut.Completed != 0 {
		t.Fatalf("cut 1 ns early: %+v, want a timed-out run with 0 completed", cut)
	}
	if cut.Bytes == 0 || cut.Bytes >= p.ResponseBytes || cut.Bytes%shard != 0 {
		t.Errorf("cut 1 ns early: Bytes = %d, want the delivered %d-byte shards (1 to %d of them)", cut.Bytes, shard, p.Fanout-1)
	}
	if cut.Elapsed != p.MaxSimTime {
		t.Errorf("cut run Elapsed = %v, want MaxSimTime %v", cut.Elapsed, p.MaxSimTime)
	}
}

func TestUnknownSchemePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for unknown scheme")
		}
	}()
	New(Config{Seed: 1, Topo: smallTopo(), Scheme: "bogus"})
}

func TestIncastParamValidation(t *testing.T) {
	topo := smallTopo()
	over := topo.HostsPerLeaf + 1
	for fanout, want := range map[int]string{0: "must be positive", over: fmt.Sprintf("fanout %d exceeds the %d hosts", over, over-1)} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
					t.Errorf("fanout %d: panic %q, want one containing %q", fanout, msg, want)
				}
			}()
			New(Config{Seed: 1, Topo: topo, Scheme: SchemeECMP}).RunIncast(IncastParams{Fanout: fanout, ResponseBytes: 1, Requests: 1})
		}()
	}
}

func TestConnReuse(t *testing.T) {
	c := New(Config{Seed: 1, Topo: smallTopo(), Scheme: SchemeECMP})
	a := c.OpenConn(0, 4, 0)
	b := c.OpenConn(0, 4, 0)
	if a != b {
		t.Error("same (client,server,idx) returned distinct conns")
	}
	d := c.OpenConn(0, 4, 1)
	if d == a {
		t.Error("different idx returned same conn")
	}
}
