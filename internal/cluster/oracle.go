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
// used by benchmarks where discovery latency is not under test.
func (c *Cluster) oracleInstall(src, dst packet.HostID) {
	paths := c.OraclePaths(src, dst, 64)
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
// current routing state and returns their full paths. It runs for every
// (src, dst) pair at set-up, so it allocates per call, not per port: one
// probe packet serves every port, and every path is a full-slice-expression
// window (len == cap) of one link buffer.
func (c *Cluster) OraclePaths(src, dst packet.HostID, maxPorts int) []discovery.Path {
	paths := make([]discovery.Path, 0, maxPorts)
	probe := &packet.Packet{Kind: packet.KindData}
	e := probe.AddEncap()
	e.SrcHyp, e.DstHyp, e.DstPort = src, dst, vswitch.EncapDstPort
	buf := make([]packet.LinkID, 0, 4*maxPorts)
	for i := 0; i < maxPorts; i++ {
		port := uint16(33000 + i*97)
		e.SrcPort = port
		start := len(buf)
		var ok bool
		if buf, ok = c.walk(src, probe, buf); !ok {
			buf = buf[:start]
			continue
		}
		links := buf[start:len(buf):len(buf)]
		paths = append(paths, discovery.Path{Port: port, Links: links, Hops: len(links)})
	}
	return paths
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
