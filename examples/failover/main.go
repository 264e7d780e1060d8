// Failover demonstrates Clove's two adaptation loops live: the fast loop
// (ECN-driven path weights, RTT timescale) and the slow loop (periodic
// traceroute rediscovery, probe-interval timescale). A Clove-ECN cluster
// runs steady traffic while a spine trunk fails mid-run; the example prints
// the source hypervisor's path-weight table as it shifts, then the
// rediscovered port set.
package main

import (
	"fmt"
	"sort"

	"clove/internal/cluster"
	"clove/internal/netem"
	"clove/internal/packet"
	"clove/internal/sim"
	"clove/internal/vswitch"
)

func main() {
	c := cluster.New(cluster.Config{
		Seed:          1,
		Topo:          netem.ScaledTestbed(1.0, 4),
		Scheme:        cluster.SchemeCloveECN,
		UseProber:     true, // real traceroute discovery with periodic refresh
		ProbeInterval: 20 * sim.Millisecond,
	})

	// Paths first (the prober needs its start-of-run round), then steady
	// bidirectional elephants keep the fabric busy.
	var pairs [][2]packet.HostID
	for i := 0; i < 4; i++ {
		client, server := packet.HostID(i), packet.HostID(4+i)
		pairs = append(pairs, [2]packet.HostID{client, server}, [2]packet.HostID{server, client})
	}
	c.SetupPaths(pairs)
	// Chains of 2MB transfers with short idle gaps between them: each job
	// starts a fresh flowlet, so the WRR table actually steers traffic.
	// The chains start at t=2ms, after the first discovery round lands.
	s := c.Eng.Domain(0) // a two-leaf cluster is one event domain
	for i := 0; i < 4; i++ {
		conn := c.OpenConn(packet.HostID(i), packet.HostID(4+i), 0)
		var chain func()
		chain = func() {
			conn.StartJob(2_000_000, func(sim.Time) {
				s.After(200*sim.Microsecond, chain)
			})
		}
		s.At(2*sim.Millisecond, chain)
	}

	pol := c.VSwitches[0].Policy().(*vswitch.CloveECN)
	printWeights := func(label string) {
		t := pol.Table(4)
		if t == nil {
			fmt.Printf("%-28s (no paths discovered yet)\n", label)
			return
		}
		w := t.Weights()
		ports := make([]int, 0, len(w))
		for p := range w {
			ports = append(ports, int(p))
		}
		sort.Ints(ports)
		fmt.Printf("%-28s", label)
		for _, p := range ports {
			fmt.Printf("  %d:%.2f", p, w[uint16(p)])
		}
		fmt.Println()
	}

	s.At(5*sim.Millisecond, func() { printWeights("t=5ms (warm)") })
	c.ScheduleControl(30*sim.Millisecond, func() {
		printWeights("t=30ms (before failure)")
		fmt.Println("** failing trunk L2-S2#0 **")
		c.LS.FailPaperLink()
	})
	s.At(35*sim.Millisecond, func() { printWeights("t=35ms (+5ms after failure)") })
	s.At(60*sim.Millisecond, func() { printWeights("t=60ms (post-rediscovery)") })

	c.Eng.Run(100 * sim.Millisecond)
	printWeights("t=100ms (final)")

	st := c.VSwitches[0].Stats()
	fmt.Printf("\nvswitch[h0]: %d flowlets, %d feedback msgs received, %d probe echoes\n",
		c.VSwitches[0].Flowlets(), st.FeedbackReceived, st.ProbeEchoes)
	fmt.Println("watch the S2-bound ports lose weight after the failure, and the")
	fmt.Println("rediscovered port set re-balance once probing maps the new topology")
}
