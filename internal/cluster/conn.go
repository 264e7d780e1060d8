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
	if tr := c.trace; tr != nil && len(c.connList) == 0 {
		// The first connection: from here on the metrics file carries the
		// transport totals.
		tr.AddMetric("tcp.retransmits", func() int64 { return c.TransportStats().Retransmits })
		tr.AddMetric("tcp.timeouts", func() int64 { return c.TransportStats().Timeouts })
	}
	c.conns[key] = conn
	c.connList = append(c.connList, conn)
	return conn
}

// Static endpoint handlers (vswitch.Flows.Open): a method value per
// registration would allocate.
func senderAck(a any, pkt *packet.Packet)    { a.(*tcp.Sender).HandleAck(pkt) }
func receiverData(a any, pkt *packet.Packet) { a.(*tcp.Receiver).HandleData(pkt) }
func mpSenderAck(a any, pkt *packet.Packet)  { a.(*tcp.MPSender).HandleAck(pkt) }

// open builds the connection's transport and opens its flow handles: one
// pair (data, ACK) per TCP connection or MPTCP subflow, stamped by the
// endpoints on every segment they send.
func (conn *Conn) open() {
	c := conn.c
	client, server := conn.Flow.Src, conn.Flow.Dst
	cvs, svs := c.VSwitches[client], c.VSwitches[server]
	if c.Cfg.Scheme == SchemeMPTCP {
		mp := tcp.NewMPSender(c.Sim, c.tcpCfg, conn.Flow, tcp.DefaultSubflows, cvs.FromVMFunc())
		for _, sub := range mp.Subflows() {
			rcv := tcp.NewSharedReceiver(c.Sim, &c.tcpCfg, sub.Flow(), svs.FromVMFunc())
			data, ack := c.flows.Open(receiverData, rcv, mpSenderAck, mp)
			sub.SetFlowHandle(data)
			rcv.SetFlowHandle(ack)
		}
		conn.mp = mp
	} else {
		tp := tcp.NewPair(c.Sim, &c.tcpCfg, conn.Flow, cvs.FromVMFunc(), svs.FromVMFunc())
		data, ack := c.flows.Open(receiverData, &tp.Rcv, senderAck, &tp.Snd)
		tp.Snd.SetFlowHandle(data)
		tp.Rcv.SetFlowHandle(ack)
		conn.tp = tp
	}
	if tr := c.trace; tr != nil {
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
// opens the transport.
func (conn *Conn) StartJob(size int64, done func(fct sim.Time)) {
	fn, a := tcp.ClosureJob(done)
	conn.startJobCall(size, fn, a, nil)
}

// startJobCall is StartJob with the callback in static form
// (tcp.Sender.StartJobCall), which the workload drivers use so that a job
// allocates no closure.
func (conn *Conn) startJobCall(size int64, done tcp.JobFunc, a, b any) {
	if !conn.opened() {
		if conn.aborted {
			return
		}
		conn.open()
	}
	if conn.mp != nil {
		conn.mp.StartJobCall(size, done, a, b)
		return
	}
	conn.tp.Snd.StartJobCall(size, done, a, b)
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
