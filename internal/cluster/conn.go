package cluster

import (
	"clove/internal/packet"
	"clove/internal/sim"
	"clove/internal/tcp"
)

// Conn is one persistent application connection from a client VM to a
// server VM: a TCP (or MPTCP) sender on the client plus receiver(s) on the
// server, wired through both hypervisors' virtual switches.
type Conn struct {
	Client, Server packet.HostID
	Flow           packet.FiveTuple

	snd *tcp.Sender
	mp  *tcp.MPSender
}

// OpenConn establishes the idx-th persistent connection between client and
// server (connections are cached per (client, server, idx)). Under the
// MPTCP scheme the connection carries tcp.DefaultSubflows subflows (4, as
// deployed in Sec. 5).
func (c *Cluster) OpenConn(client, server packet.HostID, idx int) *Conn {
	key := connKey{client, server, idx}
	if conn, ok := c.conns[key]; ok {
		return conn
	}
	sp := c.nextPort
	c.nextPort += tcp.DefaultSubflows + 1
	flow := packet.FiveTuple{
		Src: client, Dst: server,
		SrcPort: sp, DstPort: 80,
		Proto: packet.ProtoTCP,
	}
	conn := &Conn{Client: client, Server: server, Flow: flow}
	cvs, svs := c.VSwitches[client], c.VSwitches[server]

	// Each endpoint lives on its host's domain's Simulator.
	csh := &c.shards[c.shardOf(client)]
	cs, ss := csh.sim, c.simFor(server)

	if c.Cfg.Scheme == SchemeMPTCP {
		mp := tcp.NewMPSender(cs, c.tcpCfg, flow, tcp.DefaultSubflows, cvs.FromVM)
		for _, sub := range mp.Subflows() {
			sf := sub.Flow()
			rcv := tcp.NewReceiver(ss, c.tcpCfg, sf, svs.FromVM)
			svs.Register(sf, rcv.HandleData)
			cvs.Register(sf.Reverse(), mp.HandleAck)
		}
		conn.mp = mp
	} else {
		snd := tcp.NewSender(cs, c.tcpCfg, flow, cvs.FromVM)
		rcv := tcp.NewReceiver(ss, c.tcpCfg, flow, svs.FromVM)
		svs.Register(flow, rcv.HandleData)
		cvs.Register(flow.Reverse(), snd.HandleAck)
		conn.snd = snd
	}
	if tr := csh.trace; tr != nil {
		conn.eachSender(func(s *tcp.Sender) { s.SetTrace(tr) })
		if len(csh.conns) == 0 {
			// The shard's first traced connection: from here on its metrics
			// file carries the transport totals (a spine shard lists none).
			tr.AddMetric("tcp.retransmits", func() int64 { return transportStats(csh.conns).Retransmits })
			tr.AddMetric("tcp.timeouts", func() int64 { return transportStats(csh.conns).Timeouts })
		}
		csh.conns = append(csh.conns, conn)
	}
	c.conns[key] = conn
	c.connList = append(c.connList, conn)
	return conn
}

// TransportStats sums sender-side transport counters across all open
// connections (diagnostics: retransmission and timeout pressure).
func (c *Cluster) TransportStats() tcp.SenderStats { return transportStats(c.connList) }

func transportStats(conns []*Conn) tcp.SenderStats {
	var agg tcp.SenderStats
	for _, conn := range conns {
		conn.eachSender(func(s *tcp.Sender) {
			st := s.Stats()
			agg.SegmentsSent += st.SegmentsSent
			agg.Retransmits += st.Retransmits
			agg.FastRetransmits += st.FastRetransmits
			agg.Timeouts += st.Timeouts
			agg.ECNReductions += st.ECNReductions
			agg.BytesAcked += st.BytesAcked
		})
	}
	return agg
}

// eachSender calls fn for the connection's sender, or for every subflow's
// under MPTCP.
func (conn *Conn) eachSender(fn func(*tcp.Sender)) {
	if conn.mp == nil {
		fn(conn.snd)
		return
	}
	for _, sub := range conn.mp.Subflows() {
		fn(sub)
	}
}

// StartJob sends size bytes on the connection; done fires with the job
// completion time (measured from now, queueing included).
func (conn *Conn) StartJob(size int64, done func(fct sim.Time)) {
	if conn.mp != nil {
		conn.mp.StartJob(size, done)
		return
	}
	conn.snd.StartJob(size, done)
}

// Abort tears down the connection's transport mid-transfer: retransmission
// timers are cancelled and unfinished jobs dropped without completion
// callbacks. Used when the workload abandons a connection stranded by a
// fabric failure; with every periodic process also stopped (Quiesce), the
// event queue then drains and the oracle's conservation audit is exact.
func (conn *Conn) Abort() {
	if conn.mp != nil {
		conn.mp.Abort()
		return
	}
	conn.snd.Abort()
}
