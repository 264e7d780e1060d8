package netem

import (
	"fmt"
	"reflect"
	"testing"

	"clove/internal/packet"
	"clove/internal/sim"
)

func shardedCfg() LeafSpineConfig {
	return LeafSpineConfig{
		Leaves:        4,
		Spines:        2,
		TrunksPerPair: 1,
		HostsPerLeaf:  2,
		HostRateBps:   1e8,
		TrunkRateBps:  4e8,
		LinkDelay:     5 * sim.Microsecond,
		TrunkDelay:    5 * sim.Microsecond,
		QueueCap:      64,
		ECNK:          8,
	}
}

// runShardedFabric drives cross-leaf traffic over a sharded leaf–spine and
// returns a per-destination arrival log (host order), plus total DownDrops.
// A global event flaps one trunk pair mid-run so the barrier/recompute path
// is exercised too.
func runShardedFabric(t *testing.T) ([]string, int64) {
	t.Helper()
	cfg := shardedCfg()
	eng := sim.NewEngine(77, cfg.TrunkDelay, cfg.Leaves+cfg.Spines)
	ls := BuildLeafSpineSharded(eng, cfg)
	n := cfg.Leaves * cfg.HostsPerLeaf
	logs := make([][]string, n)
	for i := 0; i < n; i++ {
		h := ls.Host(packet.HostID(i))
		i := i
		h.Deliver = func(p *packet.Packet) {
			logs[i] = append(logs[i], fmt.Sprintf("src=%d sport=%d at=%d",
				p.Inner.Src, p.Encap.SrcPort, h.Domain().Now()))
		}
	}
	for i := 0; i < n; i++ {
		src := ls.Host(packet.HostID(i))
		dst := packet.HostID((i + cfg.HostsPerLeaf) % n) // always another leaf
		for k := 0; k < 30; k++ {
			at := sim.Time(k)*3*sim.Microsecond + sim.Time(i)*sim.Microsecond
			i, k := i, k
			src.Domain().At(at, func() {
				p := dataPacket(packet.HostID(i), dst, 500)
				p.Encap = &packet.Encap{SrcHyp: packet.HostID(i), DstHyp: dst,
					SrcPort: uint16(40000 + 100*i + k), DstPort: 7471}
				src.Send(p)
			})
		}
	}
	eng.GlobalAt(30*sim.Microsecond, func() { ls.SetLinkPairUp("L1", "S1", 0, false) })
	eng.GlobalAt(60*sim.Microsecond, func() { ls.SetLinkPairUp("L1", "S1", 0, true) })
	eng.Run(5 * sim.Millisecond)
	if eng.Pending() != 0 {
		t.Fatalf("%d events still pending after run", eng.Pending())
	}
	var all []string
	for i, lg := range logs {
		for _, s := range lg {
			all = append(all, fmt.Sprintf("h%d<- %s", i, s))
		}
	}
	var downDrops int64
	for _, l := range ls.Links() {
		downDrops += l.Stats().DownDrops
	}
	return all, downDrops
}

// TestShardedFabricDeterministicAcrossRuns: the same fabric built twice
// delivers identical arrivals (content, order, timestamps), including
// across a mid-run trunk flap driven from a global event.
func TestShardedFabricDeterministicAcrossRuns(t *testing.T) {
	ref, refDrops := runShardedFabric(t)
	if len(ref) == 0 {
		t.Fatal("reference run delivered nothing")
	}
	got, drops := runShardedFabric(t)
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("second run's arrival log diverges (len %d vs %d)", len(got), len(ref))
	}
	if drops != refDrops {
		t.Fatalf("second run's DownDrops = %d, want %d", drops, refDrops)
	}
}

// TestShardedBuilderMatchesLegacyShape: node/link naming and creation order
// must match BuildLeafSpine so scenario link references (L1-S1#0 etc.) and
// seeds carry over unchanged, on one domain as on one per switch.
func TestShardedBuilderMatchesLegacyShape(t *testing.T) {
	cfg := shardedCfg()
	legacy := BuildLeafSpine(sim.New(1), cfg)
	for _, n := range []int{1, cfg.Leaves + cfg.Spines} {
		eng := sim.NewEngine(1, cfg.TrunkDelay, n)
		sharded := BuildLeafSpineSharded(eng, cfg)
		if got, want := len(sharded.Links()), len(legacy.Links()); got != want {
			t.Fatalf("%d domains: link count %d, want %d", n, got, want)
		}
		for i, l := range sharded.Links() {
			if l.Name() != legacy.Links()[i].Name() {
				t.Fatalf("%d domains: link %d named %q, want %q", n, i, l.Name(), legacy.Links()[i].Name())
			}
		}
		for _, ls := range []*LeafSpine{legacy, sharded} {
			if got := ls.Pools(); len(got) != 1 || got[0] != ls.Pool() {
				t.Fatalf("Pools() = %v, want the topology's one pool", got)
			}
		}
		// Hosts belong to their leaf's domain; leaf domains come first.
		for i := 0; i < cfg.Leaves*cfg.HostsPerLeaf; i++ {
			h := sharded.Host(packet.HostID(i))
			if want := i / cfg.HostsPerLeaf % n; h.Domain().ID() != want {
				t.Fatalf("%d domains: host %d in domain %d, want %d", n, i, h.Domain().ID(), want)
			}
		}
	}
}

// TestShardedBuildDomainCount: an engine whose domain count is neither one
// nor one per switch has no layout to build into.
func TestShardedBuildDomainCount(t *testing.T) {
	cfg := shardedCfg()
	defer func() {
		if recover() == nil {
			t.Error("BuildLeafSpineSharded on a 3-domain engine did not panic")
		}
	}()
	BuildLeafSpineSharded(sim.NewEngine(1, cfg.TrunkDelay, 3), cfg)
}

// TestShardedTrunkDelayUnderLookaheadPanics pins the build-time safety
// check: a trunk faster than the lookahead would allow causality violations.
func TestShardedTrunkDelayUnderLookaheadPanics(t *testing.T) {
	cfg := shardedCfg()
	cfg.TrunkDelay = 2 * sim.Microsecond
	eng := sim.NewEngine(1, 5*sim.Microsecond, cfg.Leaves+cfg.Spines)
	defer func() {
		if recover() == nil {
			t.Error("BuildLeafSpineSharded with trunk delay < lookahead did not panic")
		}
	}()
	BuildLeafSpineSharded(eng, cfg)
}
