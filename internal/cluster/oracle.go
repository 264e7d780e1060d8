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
// used by benchmarks where discovery latency is not under test. The paths
// live in w, which the caller reuses across pairs; only ports outlives the
// call.
func (c *Cluster) oracleInstall(w *oracleWalk, src, dst packet.HostID) {
	paths := w.paths(c, src, dst, 64)
	if len(paths) == 0 {
		return
	}
	selected := discovery.SelectDisjoint(paths, c.Cfg.PathsK)
	ports := make([]uint16, len(selected))
	for i, p := range selected {
		ports[i] = p.Port
	}
	c.VSwitches[src].SetPaths(dst, ports)
	if c.Cfg.Scheme == SchemePresto && c.Cfg.PrestoIdealWeights {
		c.installPrestoWeights(src, dst, ports, selected)
	}
}

// OraclePaths walks up to maxPorts candidate encap source ports through the
// current routing state and returns their full paths, in ascending port
// order. The result is the caller's: it shares nothing with later calls.
func (c *Cluster) OraclePaths(src, dst packet.HostID, maxPorts int) []discovery.Path {
	var w oracleWalk
	return w.paths(c, src, dst, maxPorts)
}

// oracleWalk is OraclePaths' storage, reusable across pairs: one probe packet
// serves every port, and every path is a full-slice-expression window
// (len == cap) of one link buffer. SetupPaths keeps one for all its pairs, so
// a pair costs no allocation here once the buffers have grown.
type oracleWalk struct {
	probe packet.Packet
	cands []discovery.Path
	links []packet.LinkID
}

// paths fills w with src→dst's candidate paths and returns them; they are
// valid until the next call.
func (w *oracleWalk) paths(c *Cluster, src, dst packet.HostID, maxPorts int) []discovery.Path {
	w.probe.Kind = packet.KindData
	e := w.probe.AddEncap()
	e.SrcHyp, e.DstHyp, e.DstPort = src, dst, vswitch.EncapDstPort
	w.cands, w.links = w.cands[:0], w.links[:0]
	for i := 0; i < maxPorts; i++ {
		port := uint16(33000 + i*97)
		e.SrcPort = port
		start := len(w.links)
		var ok bool
		if w.links, ok = c.walk(src, &w.probe, w.links); !ok {
			w.links = w.links[:start]
			continue
		}
		links := w.links[start:len(w.links):len(w.links)]
		w.cands = append(w.cands, discovery.Path{Port: port, Links: links, Hops: len(links)})
	}
	return w.cands
}

// walk traces pkt from src's uplink to the destination host via
// RoutePreview at each switch, appending each hop's link to links.
func (c *Cluster) walk(src packet.HostID, pkt *packet.Packet, links []packet.LinkID) ([]packet.LinkID, bool) {
	node := c.LS.Host(src).Uplink().To()
	for hop := 0; hop < 16; hop++ {
		sw, ok := node.(*netem.Switch)
		if !ok {
			return links, true // reached a host
		}
		lk := sw.RoutePreview(pkt)
		if lk == nil {
			return links, false
		}
		links = append(links, lk.ID())
		node = lk.To()
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
