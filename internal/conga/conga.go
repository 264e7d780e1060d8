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

// leafState is the per-leaf CONGA table set.
type leafState struct {
	flowlets *clove.FlowletTable
	// pinned maps a flow's current flowlet to its chosen uplink.
	pinned map[packet.FiveTuple]*netem.Link
	// toLeaf[dstLeaf][uplinkID] is the learned congestion metric of the
	// path bundle starting at uplinkID toward dstLeaf.
	toLeaf map[packet.NodeID]map[packet.LinkID]float64
	// fromLeaf[srcLeaf][lbTag] is measured from arriving packets and fed
	// back to srcLeaf; lbTag indexes the source leaf's uplinks.
	fromLeaf map[packet.NodeID]map[uint8]float64
	// fbCursor rotates which metric is piggybacked next, per peer leaf.
	fbCursor map[packet.NodeID]uint8
	// uplinks in stable order; LBTag is the index in this slice.
	uplinks []*netem.Link
}

// spineState keeps per-spine flowlet pinning for trunk choice.
type spineState struct {
	flowlets *clove.FlowletTable
	pinned   map[packet.FiveTuple]*netem.Link
}

// Fabric wires CONGA onto a leaf-spine topology.
type Fabric struct {
	cfg    Config
	leaves map[packet.NodeID]*leafState
	spines map[packet.NodeID]*spineState
	// leafOf maps a host to its leaf switch ID.
	leafOf map[packet.HostID]packet.NodeID

	stats Stats
}

// Attach installs CONGA on every switch of the leaf-spine fabric. A switch's
// tables are touched only at that switch, on its own clock, and feedback
// rides in packets, so CONGA runs on a fabric sharded into event domains.
func Attach(ls *netem.LeafSpine, cfg Config) *Fabric {
	f := &Fabric{
		cfg:    cfg,
		leaves: map[packet.NodeID]*leafState{},
		spines: map[packet.NodeID]*spineState{},
		leafOf: map[packet.HostID]packet.NodeID{},
	}
	hostIDs := map[packet.NodeID]bool{}
	for _, h := range ls.Hosts() {
		hostIDs[h.ID()] = true
	}
	for _, lf := range ls.Leaves {
		st := &leafState{
			flowlets: clove.NewFlowletTable(cfg.FlowletGap),
			pinned:   map[packet.FiveTuple]*netem.Link{},
			toLeaf:   map[packet.NodeID]map[packet.LinkID]float64{},
			fromLeaf: map[packet.NodeID]map[uint8]float64{},
			fbCursor: map[packet.NodeID]uint8{},
		}
		for _, eg := range lf.Egress() {
			if !hostIDs[eg.To().ID()] {
				st.uplinks = append(st.uplinks, eg)
			}
		}
		f.leaves[lf.ID()] = st
		lf.SetLB(f)
	}
	for _, sp := range ls.Spines {
		f.spines[sp.ID()] = &spineState{
			flowlets: clove.NewFlowletTable(cfg.FlowletGap),
			pinned:   map[packet.FiveTuple]*netem.Link{},
		}
		sp.SetLB(f)
	}
	for li, lf := range ls.Leaves {
		for j := 0; j < ls.Cfg.HostsPerLeaf; j++ {
			f.leafOf[packet.HostID(li*ls.Cfg.HostsPerLeaf+j)] = lf.ID()
		}
	}
	return f
}

// Stats returns a snapshot of the counters.
func (f *Fabric) Stats() Stats { return f.stats }

// Observe implements netem.SwitchLB. At a destination leaf it harvests the
// accumulated path metric and the piggybacked feedback.
func (f *Fabric) Observe(sw *netem.Switch, pkt *packet.Packet, _ *netem.Link) {
	st := f.leaves[sw.ID()]
	if st == nil || pkt.Conga == nil {
		return
	}
	srcLeaf := f.leafOf[pkt.OuterTuple().Src]
	dstLeaf := f.leafOf[pkt.OuterDst()]
	if dstLeaf != sw.ID() || srcLeaf == sw.ID() {
		return // not the destination leaf of a cross-leaf packet
	}
	// Record the forward metric keyed by the source leaf's LBTag.
	m := st.fromLeaf[srcLeaf]
	if m == nil {
		m = map[uint8]float64{}
		st.fromLeaf[srcLeaf] = m
	}
	m[pkt.Conga.LBTag] = pkt.Conga.CEMetric
	f.stats.MetricsLearned++

	// Consume feedback about our own uplinks toward srcLeaf.
	if pkt.Conga.FbValid {
		tl := st.toLeaf[srcLeaf]
		if tl == nil {
			tl = map[packet.LinkID]float64{}
			st.toLeaf[srcLeaf] = tl
		}
		if int(pkt.Conga.FbLBTag) < len(st.uplinks) {
			tl[st.uplinks[pkt.Conga.FbLBTag].ID()] = pkt.Conga.FbMetric
		}
	}
}

// Pick implements netem.SwitchLB.
func (f *Fabric) Pick(sw *netem.Switch, pkt *packet.Packet, candidates []*netem.Link) (*netem.Link, bool) {
	if st := f.leaves[sw.ID()]; st != nil {
		return f.pickLeaf(sw, st, pkt, candidates)
	}
	if st := f.spines[sw.ID()]; st != nil {
		return f.pickSpine(sw, st, pkt, candidates)
	}
	return nil, false
}

// pickLeaf handles both roles a leaf plays.
func (f *Fabric) pickLeaf(sw *netem.Switch, st *leafState, pkt *packet.Packet, candidates []*netem.Link) (*netem.Link, bool) {
	outer := pkt.OuterTuple()
	srcLeaf := f.leafOf[outer.Src]
	dstLeaf := f.leafOf[pkt.OuterDst()]

	if srcLeaf == sw.ID() && dstLeaf != sw.ID() {
		// Source leaf of a cross-leaf packet: tag and pick the uplink.
		_, isNew := st.flowlets.Touch(outer, sw.Sim().Now())
		eg := st.pinned[outer]
		if isNew || eg == nil || !linkIn(eg, candidates) {
			eg = f.bestUplink(st, dstLeaf, candidates)
			st.pinned[outer] = eg
			f.stats.FlowletsRouted++
		}
		tag := uint8(0)
		for i, u := range st.uplinks {
			if u == eg {
				tag = uint8(i)
				break
			}
		}
		pkt.AddConga().LBTag = tag
		// Piggyback one feedback metric about paths from dstLeaf to us.
		if m := st.fromLeaf[dstLeaf]; len(m) > 0 {
			cursor := st.fbCursor[dstLeaf]
			// Rotate deterministically over tags 0..len(uplinks).
			for i := 0; i < 256; i++ {
				tag := uint8((int(cursor) + i) % 256)
				if v, ok := m[tag]; ok {
					pkt.Conga.FbValid = true
					pkt.Conga.FbLBTag = tag
					pkt.Conga.FbMetric = v
					st.fbCursor[dstLeaf] = tag + 1
					f.stats.FeedbackSent++
					break
				}
			}
		}
		return eg, true
	}
	// Destination leaf (or same-leaf traffic): default forwarding.
	return nil, false
}

// bestUplink applies the CONGA rule: minimize max(local DRE of the uplink,
// remembered congestion-to-leaf via that uplink). Unknown remote metrics
// count as zero, which makes unprobed paths attractive.
func (f *Fabric) bestUplink(st *leafState, dstLeaf packet.NodeID, candidates []*netem.Link) *netem.Link {
	tl := st.toLeaf[dstLeaf]
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

// pickSpine routes each flowlet onto the least-utilized egress trunk.
func (f *Fabric) pickSpine(sw *netem.Switch, st *spineState, pkt *packet.Packet, candidates []*netem.Link) (*netem.Link, bool) {
	if len(candidates) == 1 {
		return candidates[0], true
	}
	outer := pkt.OuterTuple()
	_, isNew := st.flowlets.Touch(outer, sw.Sim().Now())
	eg := st.pinned[outer]
	if isNew || eg == nil || !linkIn(eg, candidates) {
		eg = candidates[0]
		for _, c := range candidates[1:] {
			if c.Utilization() < eg.Utilization() {
				eg = c
			}
		}
		st.pinned[outer] = eg
	}
	return eg, true
}

func linkIn(l *netem.Link, set []*netem.Link) bool {
	for _, c := range set {
		if c == l {
			return true
		}
	}
	return false
}
