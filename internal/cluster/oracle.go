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
// current routing state and returns their full paths.
func (c *Cluster) OraclePaths(src, dst packet.HostID, maxPorts int) []discovery.Path {
	var paths []discovery.Path
	for i := 0; i < maxPorts; i++ {
		port := uint16(33000 + i*97)
		p := &packet.Packet{
			Kind:  packet.KindData,
			Encap: &packet.Encap{SrcHyp: src, DstHyp: dst, SrcPort: port, DstPort: vswitch.EncapDstPort},
		}
		links, ok := c.walk(src, p)
		if !ok {
			continue
		}
		paths = append(paths, discovery.Path{Port: port, Links: links, Hops: len(links)})
	}
	return paths
}

// walk traces pkt from src's uplink to the destination host via
// RoutePreview at each switch.
func (c *Cluster) walk(src packet.HostID, pkt *packet.Packet) ([]packet.LinkID, bool) {
	node := c.LS.Host(src).Uplink().To()
	var links []packet.LinkID
	for hop := 0; hop < 16; hop++ {
		sw, ok := node.(*netem.Switch)
		if !ok {
			return links, true // reached a host
		}
		lk := sw.RoutePreview(pkt)
		if lk == nil {
			return nil, false
		}
		links = append(links, lk.ID())
		node = lk.To()
	}
	return nil, false // loop guard tripped
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
