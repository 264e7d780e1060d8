package conga

import (
	"math/rand"
	"testing"

	"clove/internal/netem"
	"clove/internal/packet"
	"clove/internal/sim"
)

// refFeedback is CONGA's feedback rotation as first written: one
// map[uint8]float64 of learned metrics per source leaf and a 256-step
// modular scan from a per-peer uint8 cursor. It is kept verbatim as the
// reference the fabric's feedback table must match pick for pick.
type refFeedback struct {
	fromLeaf map[packet.NodeID]map[uint8]float64
	fbCursor map[packet.NodeID]uint8
}

func newRefFeedback() *refFeedback {
	return &refFeedback{
		fromLeaf: map[packet.NodeID]map[uint8]float64{},
		fbCursor: map[packet.NodeID]uint8{},
	}
}

func (r *refFeedback) observe(srcLeaf packet.NodeID, tag uint8, metric float64) {
	m := r.fromLeaf[srcLeaf]
	if m == nil {
		m = map[uint8]float64{}
		r.fromLeaf[srcLeaf] = m
	}
	m[tag] = metric
}

// pick returns the feedback the reference piggybacks on one packet from
// this leaf toward dstLeaf.
func (r *refFeedback) pick(dstLeaf packet.NodeID) (valid bool, fbTag uint8, metric float64) {
	if m := r.fromLeaf[dstLeaf]; len(m) > 0 {
		cursor := r.fbCursor[dstLeaf]
		for i := 0; i < 256; i++ {
			tag := uint8((int(cursor) + i) % 256)
			if v, ok := m[tag]; ok {
				r.fbCursor[dstLeaf] = tag + 1
				return true, tag, v
			}
		}
	}
	return false, 0, 0
}

// TestCongaFeedbackRotationMatchesReference drives Observe and Pick on small
// leaf-spine fabrics with random, sparse lbTag sets and checks every
// piggybacked feedback field against refFeedback. Each tag set holds tag 0
// and its highest tag, and tags are learned in random order between picks,
// so cursors regularly sit past the highest tag present and the rotation
// wraps; one fabric's tag sets reach 255, where the uint8 cursor wraps too.
func TestCongaFeedbackRotationMatchesReference(t *testing.T) {
	const hostsPerLeaf = 2
	fabrics := []struct {
		name                   string
		leaves, spines, trunks int
		maxTag                 int // highest lbTag a tag set may hold
		steps                  int
	}{
		{name: "2x1", leaves: 3, spines: 2, trunks: 1, maxTag: 1, steps: 2000},
		{name: "3x1", leaves: 3, spines: 3, trunks: 1, maxTag: 2, steps: 2000},
		{name: "2x2", leaves: 4, spines: 2, trunks: 2, maxTag: 3, steps: 3000},
		{name: "4x2", leaves: 3, spines: 4, trunks: 2, maxTag: 7, steps: 4000},
		{name: "4x2-tag255", leaves: 3, spines: 4, trunks: 2, maxTag: 255, steps: 4000},
	}
	for i, fc := range fabrics {
		seed := int64(i + 1)
		t.Run(fc.name, func(t *testing.T) {
			s := sim.New(seed)
			cfg := netem.PaperTestbed(0.01)
			cfg.Leaves, cfg.Spines, cfg.TrunksPerPair = fc.leaves, fc.spines, fc.trunks
			cfg.HostsPerLeaf = hostsPerLeaf
			ls := netem.BuildLeafSpine(s, cfg)
			f := Attach(ls, Config{FlowletGap: ls.BaseRTT() / 2})
			rng := rand.New(rand.NewSource(seed))

			ref := map[packet.NodeID]*refFeedback{}
			for i, lf := range ls.Leaves {
				ref[lf.ID()] = newRefFeedback()
				if got, want := len(f.leaves[i].uplinks), fc.spines*fc.trunks; got != want {
					t.Fatalf("leaf %v has %d uplinks, want %d", lf.ID(), got, want)
				}
			}
			// Each (destination leaf, source leaf) pair learns metrics only
			// for its own sparse tag set: tag 0, maxTag and a random few.
			tagSets := map[[2]int][]uint8{}
			for d := range ls.Leaves {
				for sl := range ls.Leaves {
					set := []uint8{0, uint8(fc.maxTag)}
					for k := rng.Intn(4); k > 0; k-- {
						set = append(set, uint8(rng.Intn(fc.maxTag+1)))
					}
					tagSets[[2]int{d, sl}] = set
				}
			}
			host := func(leaf int) packet.HostID {
				return packet.HostID(leaf*hostsPerLeaf + rng.Intn(hostsPerLeaf))
			}
			mk := func(src, dst packet.HostID) *packet.Packet {
				flow := packet.FiveTuple{Src: src, Dst: dst, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
				return &packet.Packet{Kind: packet.KindData, Inner: flow, PayloadLen: 100,
					Encap: &packet.Encap{SrcHyp: src, DstHyp: dst, SrcPort: uint16(50000 + rng.Intn(64)), DstPort: 7471}}
			}

			var sent, picks, wraps int64
			for step := 0; step < fc.steps; step++ {
				a := rng.Intn(fc.leaves)
				b := rng.Intn(fc.leaves - 1)
				if b >= a {
					b++
				}
				lfA, lfB := ls.Leaves[a], ls.Leaves[b]
				if rng.Intn(3) == 0 {
					// A packet from leaf b arrives at its destination leaf a.
					set := tagSets[[2]int{a, b}]
					tag := set[rng.Intn(len(set))]
					metric := rng.Float64()
					p := mk(host(b), host(a))
					c := p.AddConga()
					c.LBTag, c.CEMetric = tag, metric
					if rng.Intn(2) == 0 {
						c.FbValid, c.FbLBTag, c.FbMetric = true, uint8(rng.Intn(fc.maxTag+1)), rng.Float64()
					}
					f.leaves[a].Observe(lfA, p, nil)
					ref[lfA.ID()].observe(lfB.ID(), tag, metric)
					continue
				}
				// Leaf a sources a packet toward leaf b and piggybacks
				// feedback about the paths from b.
				dst := host(b)
				p := mk(host(a), dst)
				eg, ok := f.leaves[a].Pick(lfA, p, lfA.NextHops(dst))
				if !ok || eg == nil || p.Conga == nil {
					t.Fatalf("step %d: no CONGA pick at source leaf %v", step, lfA.ID())
				}
				r := ref[lfA.ID()]
				before := r.fbCursor[lfB.ID()]
				valid, tag, metric := r.pick(lfB.ID())
				picks++
				if valid {
					sent++
					if tag < before {
						wraps++
					}
				}
				got := p.Conga
				if got.FbValid != valid || got.FbLBTag != tag || got.FbMetric != metric {
					t.Fatalf("step %d: leaf %v -> %v piggybacked (valid %v, tag %d, metric %v), reference (valid %v, tag %d, metric %v)",
						step, lfA.ID(), lfB.ID(), got.FbValid, got.FbLBTag, got.FbMetric, valid, tag, metric)
				}
			}
			if got := f.Stats().FeedbackSent; got != sent {
				t.Errorf("FeedbackSent = %d, reference sent %d", got, sent)
			}
			if sent == 0 || wraps == 0 || sent == picks {
				t.Errorf("weak coverage: %d picks, %d with feedback, %d wrapped", picks, sent, wraps)
			}
		})
	}
}
