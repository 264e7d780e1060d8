// Command cloveprobe demonstrates Clove's traceroute-based path discovery
// (Sec. 3.1) inside the simulated fabric: it sends TTL-limited probes with
// rotated encapsulation source ports from one hypervisor, assembles the
// port→path mapping from the switch echoes, runs the greedy disjoint-path
// selection, and prints the result — before and, optionally, after a link
// failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"clove/internal/clove"
	"clove/internal/discovery"
	"clove/internal/netem"
	"clove/internal/packet"
	"clove/internal/sim"
	"clove/internal/vswitch"
)

func main() {
	var (
		hosts      = flag.Int("hosts", 8, "hosts per leaf")
		candidates = flag.Int("candidates", 32, "candidate source ports per round")
		k          = flag.Int("k", 4, "paths to select")
		fail       = flag.Bool("fail", false, "fail the S2-L2 trunk and rediscover (leaf-spine only)")
		threeTier  = flag.Bool("three-tier", false, "probe a 3-tier Clos (pods of leaves+aggs under spines) instead")
		seed       = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()

	s := sim.New(*seed)
	var (
		topo *netem.Topology
		ls   *netem.LeafSpine
		dst  packet.HostID
	)
	if *threeTier {
		tt := netem.BuildThreeTier(s, netem.DefaultThreeTier())
		topo = tt.Topology
		_, dst = tt.CrossPodPair()
	} else {
		ls = netem.BuildLeafSpine(s, netem.ScaledTestbed(1.0, *hosts))
		topo = ls.Topology
		dst = packet.HostID(*hosts) // first host on the far leaf
	}
	// A rough base-RTT estimate is fine for prober timing.
	rtt := 100 * sim.Microsecond
	if ls != nil {
		rtt = ls.Cfg.BaseRTT()
	}
	fmt.Printf("fabric: %d hosts, %d candidate ports, k=%d\n\n",
		len(topo.Hosts()), *candidates, *k)

	var vsws []*vswitch.VSwitch
	for _, h := range topo.Hosts() {
		pol := vswitch.NewCloveECN(clove.DefaultWeightTableConfig(rtt))
		vsws = append(vsws, vswitch.New(s, h, vswitch.DefaultConfig(rtt), pol))
	}

	cfg := discovery.DefaultConfig(rtt)
	cfg.CandidatePorts = *candidates
	cfg.K = *k
	if *threeTier {
		cfg.MaxTTL = 7 // 5 switch hops cross-pod
	}
	prober := discovery.NewProber(s, vsws[0], cfg)
	printRound := func(label string) {
		done := false
		prober.OnPaths = func(_ packet.HostID, ports []uint16, paths []discovery.Path) {
			fmt.Printf("== %s: selected %d paths to h%d ==\n", label, len(ports), dst)
			sort.Slice(paths, func(i, j int) bool { return paths[i].Port < paths[j].Port })
			for _, p := range paths {
				fmt.Printf("  port %5d -> %d hops via links", p.Port, p.Hops)
				for _, l := range p.Links {
					fmt.Printf(" %s", topo.LinkByID(l).Name())
				}
				fmt.Println()
			}
			st := prober.Stats()
			fmt.Printf("  (%d probes sent, %d echoes, %d incomplete ports)\n\n",
				st.ProbesSent, st.EchoesReceived, st.IncompletePorts)
			done = true
		}
		prober.Discover(dst)
		s.RunUntil(s.Now() + sim.Second)
		if !done {
			fmt.Fprintln(os.Stderr, "cloveprobe: discovery round produced no paths")
			os.Exit(1)
		}
	}

	printRound("baseline")
	if *fail {
		if ls == nil {
			fmt.Fprintln(os.Stderr, "cloveprobe: -fail applies to the leaf-spine fabric only")
			os.Exit(2)
		}
		ls.FailPaperLink()
		fmt.Println("** failed trunk L2-S2#0; ECMP tables recomputed **")
		printRound("after failure")
	}
}
