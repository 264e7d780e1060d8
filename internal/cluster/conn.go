package cluster

import (
	"clove/internal/packet"
	"clove/internal/sim"
	"clove/internal/tcp"
)

// Conn is one persistent application connection from a client VM to a
// server VM: a TCP (or MPTCP) sender on the client plus receiver(s) on the
// server, wired through both hypervisors' virtual switches. The transport
// is built by the connection's first job (open), so a named connection that
// never carries traffic costs only this record.
type Conn struct {
	// Flow is the connection's 5-tuple: Src is the client, Dst the server.
	Flow packet.FiveTuple

	c *Cluster
	// tp (TCP) or mp (MPTCP) is the transport; both are nil until the
	// first job.
	tp *tcp.Pair
	mp *tcp.MPSender
	// aborted marks a connection aborted before its first job: it never
	// opens, and its jobs are dropped.
	aborted bool
}

// OpenConn names the idx-th persistent connection between client and
// server (connections are cached per (client, server, idx)). It fixes what
// the simulation depends on — the connection's ports, which every ECMP hash
// reads, and its place in open order — and leaves the transport to the
// first job. Under the MPTCP scheme the connection carries
// tcp.DefaultSubflows subflows (4, as deployed in Sec. 5).
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
	conn := &Conn{Flow: flow, c: c}
	csh := &c.shards[c.shardOf(client)]
	if tr := csh.trace; tr != nil {
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

// Static endpoint handlers (vswitch.RegisterCall): a method value per
// registration would allocate.
func senderAck(a any, pkt *packet.Packet)    { a.(*tcp.Sender).HandleAck(pkt) }
func receiverData(a any, pkt *packet.Packet) { a.(*tcp.Receiver).HandleData(pkt) }
func mpSenderAck(a any, pkt *packet.Packet)  { a.(*tcp.MPSender).HandleAck(pkt) }

// open builds the connection's transport, each endpoint on its host's
// Simulator, and registers it at both vswitches. It runs in the sender's
// (the client's) event domain, and the server-side registration writes
// another domain's vswitch; that is safe because domains run one at a time
// and no segment can reach the server before this first job sends one
// (DESIGN.md §4d).
func (conn *Conn) open() {
	c := conn.c
	client, server := conn.Flow.Src, conn.Flow.Dst
	cvs, svs := c.VSwitches[client], c.VSwitches[server]
	csh := &c.shards[c.shardOf(client)]
	cs, ss := csh.sim, c.simFor(server)
	if c.Cfg.Scheme == SchemeMPTCP {
		mp := tcp.NewMPSender(cs, c.tcpCfg, conn.Flow, tcp.DefaultSubflows, cvs.FromVMFunc())
		for _, sub := range mp.Subflows() {
			sf := sub.Flow()
			svs.RegisterCall(sf, receiverData, tcp.NewReceiver(ss, c.tcpCfg, sf, svs.FromVMFunc()))
			cvs.RegisterCall(sf.Reverse(), mpSenderAck, mp)
		}
		conn.mp = mp
	} else {
		tp := tcp.NewPair(cs, ss, c.tcpCfg, conn.Flow, cvs.FromVMFunc(), svs.FromVMFunc())
		svs.RegisterCall(conn.Flow, receiverData, &tp.Rcv)
		cvs.RegisterCall(conn.Flow.Reverse(), senderAck, &tp.Snd)
		conn.tp = tp
	}
	if tr := csh.trace; tr != nil {
		conn.eachSender(func(s *tcp.Sender) { s.SetTrace(tr) })
	}
}

// opened reports whether the connection's transport exists.
func (conn *Conn) opened() bool { return conn.tp != nil || conn.mp != nil }

// TransportStats sums sender-side transport counters across all
// connections (diagnostics: retransmission and timeout pressure); one that
// never carried a job counts zero.
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
// under MPTCP; an unopened connection has none.
func (conn *Conn) eachSender(fn func(*tcp.Sender)) {
	switch {
	case conn.tp != nil:
		fn(&conn.tp.Snd)
	case conn.mp != nil:
		for _, sub := range conn.mp.Subflows() {
			fn(sub)
		}
	}
}

// StartJob sends size bytes on the connection; done fires with the job
// completion time (measured from now, queueing included). The first job
// opens the transport; it must run in the client's event domain, as every
// job does.
func (conn *Conn) StartJob(size int64, done func(fct sim.Time)) {
	if !conn.opened() {
		if conn.aborted {
			return
		}
		conn.open()
	}
	if conn.mp != nil {
		conn.mp.StartJob(size, done)
		return
	}
	conn.tp.Snd.StartJob(size, done)
}

// Abort tears down the connection's transport mid-transfer: retransmission
// timers are cancelled and unfinished jobs dropped without completion
// callbacks. Used when the workload abandons a connection stranded by a
// fabric failure; with every periodic process also stopped (Quiesce), the
// event queue then drains and the oracle's conservation audit is exact.
// A connection aborted before its first job never opens.
func (conn *Conn) Abort() {
	switch {
	case conn.tp != nil:
		conn.tp.Snd.Abort()
	case conn.mp != nil:
		conn.mp.Abort()
	default:
		conn.aborted = true
	}
}
