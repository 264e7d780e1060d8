package conga

import (
	"math/rand"
	"slices"
	"testing"

	"clove/internal/clove"
	"clove/internal/netem"
	"clove/internal/packet"
	"clove/internal/sim"
)

// refPins is pins without eviction: one pin per tuple ever seen, kept for
// the whole run, as the switch held them before expired pins were dropped.
type refPins struct {
	flowlets clove.FlowletTable
	pinned   map[packet.FiveTuple]*pin
}

func (p *refPins) get(flow packet.FiveTuple, now sim.Time, candidates []*netem.Link) (*netem.Link, *pin) {
	pn := p.pinned[flow]
	if pn == nil {
		pn = &pin{flow: flow}
		p.pinned[flow] = pn
	}
	if p.flowlets.TouchEntry(&pn.flowlet, now) {
		return nil, pn
	}
	if eg := pn.link; eg != nil && slices.Contains(candidates, eg) {
		return eg, pn
	}
	return nil, pn
}

// TestPinsEvictionMatchesReference drives pins and the never-evicting
// reference with the same random traces: a few long flows that pause now and
// then, mixed with one-packet tuples on fresh ports (the shape standalone
// feedback gives a switch), over candidate sets that sometimes drop links.
// Every pick and the flowlet count must agree, while pins keeps only a
// bounded multiple of the flows live within one gap.
func TestPinsEvictionMatchesReference(t *testing.T) {
	ls := netem.BuildLeafSpine(sim.New(1), netem.LeafSpineConfig{
		Leaves: 2, Spines: 4, TrunksPerPair: 1, HostsPerLeaf: 1,
		HostRateBps: 1e9, TrunkRateBps: 1e9,
	})
	all := ls.Leaves[0].NextHops(1)
	if len(all) != 4 {
		t.Fatalf("%d candidates, want 4", len(all))
	}
	const gap = 100
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got := newPins(gap)
		ref := refPins{pinned: map[packet.FiveTuple]*pin{}}
		ref.flowlets.SetGap(gap)
		// Both sides pick a new flowlet's link with their own RNG, seeded
		// alike, so they stay in step only while they draw alike.
		gotRNG, refRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))

		// live tracks the flows touched within the last gap: last is each
		// live flow's latest touch, touches the touches in time order.
		type touch struct {
			at   sim.Time
			flow packet.FiveTuple
		}
		last := map[packet.FiveTuple]sim.Time{}
		var touches []touch
		maxLive := 0

		var now sim.Time
		nextPort := uint16(1000)
		for step := 0; step < 20000; step++ {
			now += sim.Time(rng.Intn(12))
			if rng.Intn(200) == 0 {
				now += 3 * gap // everyone idles
			}
			flow := packet.FiveTuple{Src: 0, Dst: 1, SrcPort: uint16(rng.Intn(6)), DstPort: 7471, Proto: packet.ProtoUDP}
			if rng.Intn(3) == 0 {
				flow.SrcPort = nextPort // a one-packet tuple
				nextPort++
			}
			cands := all
			if rng.Intn(10) == 0 {
				cands = all[:1+rng.Intn(len(all)-1)]
			}

			g, gp := got.get(flow, now, cands)
			r, rp := ref.get(flow, now, cands)
			if g != r {
				t.Fatalf("seed %d step %d: pinned link %v, reference %v", seed, step, g, r)
			}
			if g == nil {
				g, r = cands[gotRNG.Intn(len(cands))], cands[refRNG.Intn(len(cands))]
				if g != r {
					t.Fatalf("seed %d step %d: picked %v, reference %v", seed, step, g, r)
				}
				gp.link, rp.link = g, r
			}
			if gf, rf := got.flowlets.Flowlets(), ref.flowlets.Flowlets(); gf != rf {
				t.Fatalf("seed %d step %d: %d flowlets, reference %d", seed, step, gf, rf)
			}

			touches = append(touches, touch{now, flow})
			last[flow] = now
			for len(touches) > 0 && now-touches[0].at > gap {
				if last[touches[0].flow] == touches[0].at {
					delete(last, touches[0].flow)
				}
				touches = touches[1:]
			}
			maxLive = max(maxLive, len(last))
			if len(got.index) != len(got.pinned) {
				t.Fatalf("seed %d step %d: %d indexed, %d pinned", seed, step, len(got.index), len(got.pinned))
			}
			if n := len(got.pinned); n > 4*maxLive+8 {
				t.Fatalf("seed %d step %d: %d pins for at most %d live flows", seed, step, n, maxLive)
			}
		}
		for i, pn := range got.pinned {
			if j, ok := got.index[pn.flow]; !ok || int(j) != i {
				t.Fatalf("seed %d: pin %d of %v indexed at %d (%v)", seed, i, pn.flow, j, ok)
			}
		}
		if len(ref.pinned) < 4*len(got.pinned) {
			t.Fatalf("seed %d: reference holds %d pins, evicting %d: the trace does not exercise eviction", seed, len(ref.pinned), len(got.pinned))
		}
	}
}
