// Package conga implements the CONGA baseline: in-network, leaf-to-leaf
// congestion-aware flowlet load balancing, the "best hardware" upper bound
// the paper compares against (Sec. 6). Source leaves pick the uplink
// minimizing the max of local DRE utilization and the remembered
// congestion-to-leaf metric; packets accumulate the maximum link
// utilization along their path in a fabric header, destination leaves
// record it and piggyback it back on reverse traffic. Spines route each
// flowlet onto their least-utilized egress, standing in for the full-fabric
// deployment of the real system.
package conga

import (
	"slices"

	"clove/internal/clove"
	"clove/internal/netem"
	"clove/internal/packet"
	"clove/internal/sim"
)

// Config parameterizes the CONGA fabric.
type Config struct {
	// FlowletGap is the hardware flowlet timeout.
	FlowletGap sim.Time
}

// Stats counts CONGA decisions for diagnostics.
type Stats struct {
	FlowletsRouted int64
	MetricsLearned int64
	FeedbackSent   int64
}

// leafLB is one leaf's CONGA tables, installed as that leaf's SwitchLB.
type leafLB struct {
	id packet.NodeID
	// leafOf maps a HostID to its leaf's ID; every leaf shares one slice.
	leafOf []packet.NodeID
	stats  *Stats
	pins   pins
	// toLeaf[dstLeaf][uplinkID] is the learned congestion metric of the
	// path bundle starting at uplinkID toward dstLeaf.
	toLeaf map[packet.NodeID]map[packet.LinkID]float64
	// fromLeaf[srcLeaf] holds the metrics measured from packets arriving
	// from srcLeaf, indexed by lbTag, and rotates which one is fed back
	// next; lbTag indexes the source leaf's uplinks.
	fromLeaf map[packet.NodeID]*fbTable
	// uplinks in stable order; LBTag is the index in this slice.
	uplinks []*netem.Link
}

// fbTable is a dense table of the metrics learned from one source leaf,
// indexed by lbTag. It grows to the highest tag written, so no tag at or
// beyond its length is present; entries are never removed.
type fbTable struct {
	ent []fbEntry
	// cursor is the tag the next feedback search starts at: the last
	// piggybacked tag + 1, wrapping as a uint8. It never exceeds len(ent).
	cursor uint8
}

type fbEntry struct {
	metric  float64
	present bool
}

// set records metric for tag, growing the table on first write.
func (t *fbTable) set(tag uint8, metric float64) {
	if n := int(tag) + 1; n > len(t.ent) {
		t.ent = append(t.ent, make([]fbEntry, n-len(t.ent))...)
	}
	t.ent[tag] = fbEntry{metric: metric, present: true}
}

// next returns the first present tag at or after the cursor, wrapping to
// tag 0, and moves the cursor past it. Scanning from the cursor to the end
// and then from 0 up to the cursor visits present tags in the order of a
// 256-step modular scan from the cursor, because no tag at or beyond the
// table's length is present.
func (t *fbTable) next() (tag uint8, metric float64, ok bool) {
	c := int(t.cursor)
	for i := c; i < len(t.ent); i++ {
		if t.ent[i].present {
			return t.take(i)
		}
	}
	for i := 0; i < c; i++ {
		if t.ent[i].present {
			return t.take(i)
		}
	}
	return 0, 0, false
}

func (t *fbTable) take(i int) (uint8, float64, bool) {
	tag := uint8(i)
	t.cursor = tag + 1
	return tag, t.ent[i].metric, true
}

// spineLB is one spine's flowlet pinning for trunk choice.
type spineLB struct{ pins pins }

// pins keeps one switch's flowlet pinning: every packet of a flowlet leaves
// on the egress link its first packet was given. A switch sees five-tuples,
// not the edge's flow handles, and a table indexed by handle at every
// switch would grow with flows × switches, so pins are found by the outer
// tuple: one map probe per packet, into entries stored by value.
type pins struct {
	flowlets *clove.FlowletTable // the gap, and the flowlet count
	index    map[packet.FiveTuple]int32
	pinned   []pin
}

// pin is one flow's flowlet state and the link its flowlet is pinned to.
type pin struct {
	flowlet clove.FlowletEntry
	link    *netem.Link
}

func newPins(gap sim.Time) pins {
	return pins{flowlets: clove.NewFlowletTable(gap), index: map[packet.FiveTuple]int32{}}
}

// get records a packet of flow at now and returns the link its flowlet is
// pinned to, or nil when the packet starts a new flowlet or the pinned link
// is no longer a candidate; the caller then picks a link and stores it in
// the returned pin, which is valid until the next get.
func (p *pins) get(flow packet.FiveTuple, now sim.Time, candidates []*netem.Link) (*netem.Link, *pin) {
	i, ok := p.index[flow]
	if !ok {
		i = int32(len(p.pinned))
		p.index[flow] = i
		p.pinned = append(p.pinned, pin{})
	}
	pn := &p.pinned[i]
	if p.flowlets.TouchEntry(&pn.flowlet, now) {
		return nil, pn
	}
	if eg := pn.link; eg != nil && slices.Contains(candidates, eg) {
		return eg, pn
	}
	return nil, pn
}

// Fabric is CONGA on a leaf-spine topology: one SwitchLB per switch, and
// the decision counters they share.
type Fabric struct {
	leaves []*leafLB // in LeafSpine.Leaves order
	stats  Stats
}

// Attach installs CONGA on every switch of the leaf-spine fabric, and makes
// the fabric track the link utilization its metrics read. A switch's tables
// are touched only at that switch, and feedback rides in packets.
func Attach(ls *netem.LeafSpine, cfg Config) *Fabric {
	ls.TrackUtilization()
	f := &Fabric{}
	hostIDs := map[packet.NodeID]bool{}
	for _, h := range ls.Hosts() {
		hostIDs[h.ID()] = true
	}
	leafOf := make([]packet.NodeID, len(ls.Leaves)*ls.Cfg.HostsPerLeaf)
	for i := range leafOf {
		leafOf[i] = ls.Leaves[i/ls.Cfg.HostsPerLeaf].ID()
	}
	for _, lf := range ls.Leaves {
		l := &leafLB{
			id:       lf.ID(),
			leafOf:   leafOf,
			stats:    &f.stats,
			pins:     newPins(cfg.FlowletGap),
			toLeaf:   map[packet.NodeID]map[packet.LinkID]float64{},
			fromLeaf: map[packet.NodeID]*fbTable{},
		}
		for _, eg := range lf.Egress() {
			if !hostIDs[eg.To().ID()] {
				l.uplinks = append(l.uplinks, eg)
			}
		}
		f.leaves = append(f.leaves, l)
		lf.SetLB(l)
	}
	for _, sp := range ls.Spines {
		sp.SetLB(&spineLB{pins: newPins(cfg.FlowletGap)})
	}
	return f
}

// Stats returns a snapshot of the counters.
func (f *Fabric) Stats() Stats { return f.stats }

// Observe implements netem.SwitchLB. At a destination leaf it harvests the
// accumulated path metric and the piggybacked feedback.
func (l *leafLB) Observe(_ *netem.Switch, pkt *packet.Packet, _ *netem.Link) {
	if pkt.Conga == nil {
		return
	}
	srcLeaf := l.leafOf[pkt.OuterTuple().Src]
	dstLeaf := l.leafOf[pkt.OuterDst()]
	if dstLeaf != l.id || srcLeaf == l.id {
		return // not the destination leaf of a cross-leaf packet
	}
	// Record the forward metric keyed by the source leaf's LBTag.
	fb := l.fromLeaf[srcLeaf]
	if fb == nil {
		fb = &fbTable{}
		l.fromLeaf[srcLeaf] = fb
	}
	fb.set(pkt.Conga.LBTag, pkt.Conga.CEMetric)
	l.stats.MetricsLearned++

	// Consume feedback about our own uplinks toward srcLeaf.
	if pkt.Conga.FbValid {
		tl := l.toLeaf[srcLeaf]
		if tl == nil {
			tl = map[packet.LinkID]float64{}
			l.toLeaf[srcLeaf] = tl
		}
		if int(pkt.Conga.FbLBTag) < len(l.uplinks) {
			tl[l.uplinks[pkt.Conga.FbLBTag].ID()] = pkt.Conga.FbMetric
		}
	}
}

// Pick implements netem.SwitchLB. At the source leaf of a cross-leaf packet
// it tags the packet and picks the uplink; a destination leaf (or same-leaf
// traffic) falls back to default forwarding.
func (l *leafLB) Pick(sw *netem.Switch, pkt *packet.Packet, candidates []*netem.Link) (*netem.Link, bool) {
	outer := pkt.OuterTuple()
	dstLeaf := l.leafOf[pkt.OuterDst()]
	if l.leafOf[outer.Src] != l.id || dstLeaf == l.id {
		return nil, false
	}
	eg, pn := l.pins.get(outer, sw.Sim().Now(), candidates)
	if eg == nil {
		eg = l.bestUplink(dstLeaf, candidates)
		pn.link = eg
		l.stats.FlowletsRouted++
	}
	tag := uint8(0)
	for i, u := range l.uplinks {
		if u == eg {
			tag = uint8(i)
			break
		}
	}
	pkt.AddConga().LBTag = tag
	// Piggyback one feedback metric about paths from dstLeaf to us.
	// Rotate deterministically over the learned tags.
	if fb := l.fromLeaf[dstLeaf]; fb != nil {
		if tag, v, ok := fb.next(); ok {
			pkt.Conga.FbValid = true
			pkt.Conga.FbLBTag = tag
			pkt.Conga.FbMetric = v
			l.stats.FeedbackSent++
		}
	}
	return eg, true
}

// bestUplink applies the CONGA rule: minimize max(local DRE of the uplink,
// remembered congestion-to-leaf via that uplink). Unknown remote metrics
// count as zero, which makes unprobed paths attractive.
func (l *leafLB) bestUplink(dstLeaf packet.NodeID, candidates []*netem.Link) *netem.Link {
	tl := l.toLeaf[dstLeaf]
	var best *netem.Link
	bestMetric := 2.0e9
	for _, c := range candidates {
		m := c.Utilization()
		if tl != nil {
			if remote, ok := tl[c.ID()]; ok && remote > m {
				m = remote
			}
		}
		if m < bestMetric {
			best, bestMetric = c, m
		}
	}
	return best
}

// Observe implements netem.SwitchLB (a spine learns nothing).
func (*spineLB) Observe(*netem.Switch, *packet.Packet, *netem.Link) {}

// Pick implements netem.SwitchLB: each flowlet goes to the least-utilized
// egress trunk.
func (s *spineLB) Pick(sw *netem.Switch, pkt *packet.Packet, candidates []*netem.Link) (*netem.Link, bool) {
	if len(candidates) == 1 {
		return candidates[0], true
	}
	outer := pkt.OuterTuple()
	eg, pn := s.pins.get(outer, sw.Sim().Now(), candidates)
	if eg == nil {
		eg = candidates[0]
		for _, c := range candidates[1:] {
			if c.Utilization() < eg.Utilization() {
				eg = c
			}
		}
		pn.link = eg
	}
	return eg, true
}

// letFlowLB is the LetFlow baseline (Sec. 8) at one switch: it splits flows
// into flowlets and sends each flowlet to a random next hop, with no
// congestion awareness at all. LetFlow's insight — which the paper's
// Edge-Flowlet transplants to the hypervisor — is that flowlet boundaries
// themselves adapt to congestion, because congested paths stall ACK
// clocking and spawn new flowlets.
type letFlowLB struct{ pins pins }

// AttachLetFlow installs LetFlow on every switch in the fabric: one instance
// per switch, drawing from the switch's Simulator (clock and RNG).
func AttachLetFlow(ls *netem.LeafSpine, gap sim.Time) {
	for _, sw := range ls.Switches() {
		sw.SetLB(&letFlowLB{pins: newPins(gap)})
	}
}

// Observe implements netem.SwitchLB (LetFlow keeps no global state).
func (*letFlowLB) Observe(*netem.Switch, *packet.Packet, *netem.Link) {}

// Pick implements netem.SwitchLB: random next hop per flowlet. It draws from
// the RNG only for a new flowlet or a pin that is no longer a candidate.
func (l *letFlowLB) Pick(sw *netem.Switch, pkt *packet.Packet, candidates []*netem.Link) (*netem.Link, bool) {
	if len(candidates) == 1 {
		return candidates[0], true
	}
	outer := pkt.OuterTuple()
	eg, pn := l.pins.get(outer, sw.Sim().Now(), candidates)
	if eg == nil {
		eg = candidates[sw.Sim().Rand().Intn(len(candidates))]
		pn.link = eg
	}
	return eg, true
}
