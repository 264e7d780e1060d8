package cluster

import (
	"clove/internal/discovery"
	"clove/internal/netem"
	"clove/internal/packet"
	"clove/internal/vswitch"
)

// oracleInstall enumerates port→path mappings by walking the routing tables
// directly (no probe traffic) and installs the selected disjoint set. It
// produces the same result the traceroute prober converges to, instantly —
// used by benchmarks where discovery latency is not under test. The walk
// state lives in w, which the caller reuses across pairs; only ports
// outlives the call.
func (c *Cluster) oracleInstall(w *oracleWalk, src, dst packet.HostID) {
	selected := w.selectPaths(c, src, dst, 64)
	if len(selected) == 0 {
		return
	}
	ports := make([]uint16, len(selected))
	for i, p := range selected {
		ports[i] = p.Port
	}
	c.VSwitches[src].SetPaths(dst, ports)
	if c.Cfg.Scheme == SchemePresto && c.Cfg.PrestoIdealWeights {
		c.installPrestoWeights(src, dst, ports, selected)
	}
}

// oracleWalk is oracleInstall's walk state, reusable across pairs: one probe
// packet serves every port, every path is a full-slice-expression window
// (len == cap) of one link buffer, and one discovery.Selector picks among
// them. SetupPaths keeps one for all its pairs, so a pair costs no
// allocation here once the buffers have grown. walked counts the ports
// traced over all pairs.
type oracleWalk struct {
	probe  packet.Packet
	sel    discovery.Selector
	links  []packet.LinkID
	walked int
}

// selectPaths walks src→dst's candidate ports in order, offering each
// complete path to the selector, and stops as soon as the selection is
// decided: every path ends in dst's downlink (walk checks it), so the first
// path whose only link in common with the selection is that one settles a
// step. It returns the selection, valid until the next call.
func (w *oracleWalk) selectPaths(c *Cluster, src, dst packet.HostID, maxPorts int) []discovery.Path {
	w.probe.Kind = packet.KindData
	e := w.probe.AddEncap()
	e.SrcHyp, e.DstHyp, e.DstPort = src, dst, vswitch.EncapDstPort
	w.sel.Reset(c.Cfg.PathsK)
	w.links = w.links[:0]
	for i := 0; i < maxPorts; i++ {
		port := oraclePort(i)
		e.SrcPort = port
		w.walked++
		start := len(w.links)
		var ok bool
		if w.links, ok = c.walk(src, dst, &w.probe, w.links); !ok {
			w.links = w.links[:start]
			continue
		}
		links := w.links[start:len(w.links):len(w.links)]
		if w.sel.Add(discovery.Path{Port: port, Links: links, Hops: len(links)}) {
			break
		}
	}
	return w.sel.Finish()
}

// oraclePort is the i-th encapsulation source port the oracle walks.
func oraclePort(i int) uint16 { return uint16(33000 + i*97) }

// walk traces pkt from src's uplink via RoutePreview at each switch,
// appending each hop's link to links. It reports success only when the
// trace ends at dst, over dst's downlink.
func (c *Cluster) walk(src, dst packet.HostID, pkt *packet.Packet, links []packet.LinkID) ([]packet.LinkID, bool) {
	node := c.LS.Host(src).Uplink().To()
	var last *netem.Link
	for hop := 0; hop < 16; hop++ {
		sw, ok := node.(*netem.Switch)
		if !ok {
			// A host: dst only if the last hop was dst's one inbound link.
			return links, last == c.LS.Host(dst).Downlink()
		}
		last = sw.RoutePreview(pkt)
		if last == nil {
			return links, false
		}
		links = append(links, last.ID())
		node = last.To()
	}
	return links, false // loop guard tripped
}

// DiscoveredPorts reports the ports currently installed for (src,dst), for
// schemes that keep weight tables; nil otherwise (test/telemetry helper).
func (c *Cluster) DiscoveredPorts(src, dst packet.HostID) []uint16 {
	switch pol := c.VSwitches[src].Policy().(type) {
	case *vswitch.CloveECN:
		if t := pol.Table(dst); t != nil {
			return t.Ports()
		}
	case *vswitch.CloveINT:
		if t := pol.Table(dst); t != nil {
			return t.Ports()
		}
	}
	return nil
}
