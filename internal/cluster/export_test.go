package cluster

import (
	"clove/internal/discovery"
	"clove/internal/packet"
	"clove/internal/vswitch"
)

// MeshPairs lists the (src, dst) pairs RunMix's mesh hands SetupPaths:
// both directions of every client–server pair.
func (c *Cluster) MeshPairs() [][2]packet.HostID {
	var pairs [][2]packet.HostID
	add := func(client, server packet.HostID) {
		pairs = append(pairs, [2]packet.HostID{client, server}, [2]packet.HostID{server, client})
	}
	if n := c.Cfg.Topo.HostsPerLeaf; c.Cfg.Topo.Leaves == 2 {
		for ci := 0; ci < n; ci++ {
			for si := 0; si < n; si++ {
				add(packet.HostID(ci), packet.HostID(n+si))
			}
		}
		return pairs
	}
	for ci, ss := range c.rotatedServers() {
		for _, s := range ss {
			add(packet.HostID(ci), s)
		}
	}
	return pairs
}

// OracleInstaller installs pairs' paths the way SetupPaths' oracle does,
// keeping one walk state across calls.
type OracleInstaller struct {
	c *Cluster
	w oracleWalk
}

// NewOracleInstaller returns an installer for c.
func (c *Cluster) NewOracleInstaller() *OracleInstaller { return &OracleInstaller{c: c} }

// Install walks and installs src→dst's path set.
func (o *OracleInstaller) Install(src, dst packet.HostID) { o.c.oracleInstall(&o.w, src, dst) }

// Walked is the number of ports traced over every Install so far.
func (o *OracleInstaller) Walked() int { return o.w.walked }

// FullWalkPorts is the oracle without its early stop: all 64 ports walked,
// then discovery.SelectDisjoint over every path found.
func (c *Cluster) FullWalkPorts(src, dst packet.HostID) []uint16 {
	var probe packet.Packet
	probe.Kind = packet.KindData
	e := probe.AddEncap()
	e.SrcHyp, e.DstHyp, e.DstPort = src, dst, vswitch.EncapDstPort
	var paths []discovery.Path
	for i := 0; i < 64; i++ {
		e.SrcPort = oraclePort(i)
		links, ok := c.walk(src, dst, &probe, nil)
		if ok {
			paths = append(paths, discovery.Path{Port: e.SrcPort, Links: links, Hops: len(links)})
		}
	}
	var ports []uint16
	for _, p := range discovery.SelectDisjoint(paths, c.Cfg.PathsK) {
		ports = append(ports, p.Port)
	}
	return ports
}
