package cluster

import (
	"clove/internal/clove"
	"clove/internal/netem"
	"clove/internal/packet"
	"clove/internal/sim"
)

// letFlowLB implements the LetFlow baseline (Sec. 8): switches split flows
// into flowlets and hash each flowlet to a *random* next-hop, with no
// congestion awareness at all. LetFlow's insight — which the paper's
// Edge-Flowlet transplants to the hypervisor — is that flowlet boundaries
// themselves adapt to congestion, because congested paths stall ACK
// clocking and spawn new flowlets.
type letFlowLB struct {
	sim      *sim.Simulator
	flowlets *clove.FlowletTable
	pinned   map[packet.FiveTuple]*netem.Link
}

// attachLetFlow installs LetFlow on every switch in the fabric: one instance
// per switch, bound to the switch's own Simulator (clock and RNG), so its
// state stays confined to the switch's event domain.
func attachLetFlow(ls *netem.LeafSpine, gap sim.Time) {
	for _, sw := range ls.Switches() {
		sw.SetLB(&letFlowLB{
			sim:      sw.Sim(),
			flowlets: clove.NewFlowletTable(gap),
			pinned:   map[packet.FiveTuple]*netem.Link{},
		})
	}
}

// Observe implements netem.SwitchLB (LetFlow keeps no global state).
func (l *letFlowLB) Observe(*netem.Switch, *packet.Packet, *netem.Link) {}

// Pick implements netem.SwitchLB: random next-hop per flowlet.
func (l *letFlowLB) Pick(_ *netem.Switch, pkt *packet.Packet, candidates []*netem.Link) (*netem.Link, bool) {
	if len(candidates) == 1 {
		return candidates[0], true
	}
	outer := pkt.OuterTuple()
	_, isNew := l.flowlets.Touch(outer, l.sim.Now())
	eg := l.pinned[outer]
	if isNew || eg == nil || !containsLink(eg, candidates) {
		eg = candidates[l.sim.Rand().Intn(len(candidates))]
		l.pinned[outer] = eg
	}
	return eg, true
}

func containsLink(l *netem.Link, set []*netem.Link) bool {
	for _, c := range set {
		if c == l {
			return true
		}
	}
	return false
}
