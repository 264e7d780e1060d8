package vswitch

import (
	"fmt"
	"math"

	"clove/internal/clove"
	"clove/internal/netem"
	"clove/internal/packet"
	"clove/internal/sim"
	"clove/internal/telemetry"
)

// EncapDstPort is the fixed outer destination port of the overlay protocol
// (STT's well-known port).
const EncapDstPort = 7471

// Config parameterizes a virtual switch.
type Config struct {
	// FlowletGap is the inter-packet idle time that starts a new flowlet
	// (paper recommendation: one to two RTTs, Fig. 6).
	FlowletGap sim.Time
	// RelayInterval is the minimum spacing between feedback relays for any
	// one path ("half the RTT" per Sec. 3.2).
	RelayInterval sim.Time
	// MaskECN hides underlay CE marks from the tenant VM unless every path
	// to the peer is congested (the Clove behaviour). When false, CE is
	// copied to the inner header on decapsulation per RFC 6040 (standard
	// overlay behaviour, used for ECMP/Edge-Flowlet/Presto/MPTCP runs).
	MaskECN bool
	// RequestINT makes outgoing data packets carry INT instructions so
	// switches stamp max link utilization (Clove-INT).
	RequestINT bool
	// MeasureLatency timestamps outgoing packets at encapsulation and has
	// the receiving hypervisor reflect the measured one-way path delay as
	// the path metric — the Sec. 7 "use of path latency" variant, which
	// needs only NIC timestamping and clock sync instead of INT switches.
	MeasureLatency bool
	// AdaptiveFlowletGap grows the flowlet gap with the measured spread of
	// path delays (Sec. 7 "Flowlet optimization": adapt the gap to the RTT
	// variance across paths so flowlets rarely arrive out of order).
	// Effective only together with MeasureLatency, which produces the
	// delay samples.
	AdaptiveFlowletGap bool
}

// DefaultConfig returns Clove-ECN defaults scaled to the given base RTT.
func DefaultConfig(rtt sim.Time) Config {
	return Config{
		FlowletGap:    rtt,
		RelayInterval: rtt / 2,
		MaskECN:       true,
	}
}

// Stats counts vswitch-level events.
type Stats struct {
	Encapped           int64
	Decapped           int64
	CEObserved         int64 // outer CE marks intercepted at the receiver
	FeedbackPiggy      int64 // feedback piggybacked on reverse traffic
	FeedbackStandalone int64
	FeedbackReceived   int64
	ECNMasked          int64 // CE marks hidden from the tenant VM
	ECNRelayedToVM     int64 // ECE set on inner ACKs (all paths congested)
	ProbeEchoes        int64
	NoHandler          int64
}

// peer is the receiver-side record of one remote hypervisor, made on its
// first observation that can be relayed. It lives for the whole run, so
// arming its standalone-feedback timer allocates nothing: the record rides
// in the event's operand slot.
type peer struct {
	id packet.HostID
	// armed is set while a standalone-feedback timer is pending.
	armed bool
	// paths holds what is waiting to be relayed about the remote's forward
	// paths.
	paths clove.PeerPaths
	// delayLo and delayHi are EWMAs of the fastest and slowest reflected
	// path delay (seconds) for the adaptive flowlet gap; they start at +Inf
	// and -Inf, so the first sample sets both.
	delayLo, delayHi float64
}

// VSwitch is one hypervisor's virtual switch. It encapsulates tenant
// traffic with an overlay header whose source port is chosen by the
// configured PathPolicy per flowlet, and on the receive side intercepts
// congestion state and reflects it to peers inside encap context bits.
type VSwitch struct {
	sim  *sim.Simulator
	host *netem.Host
	cfg  Config
	self packet.HostID
	pool *packet.Pool

	policy   PathPolicy
	flowlets *clove.FlowletTable
	// perPacket and rxHook are policy seen through its two optional
	// interfaces, nil when it implements neither; resolved once in New.
	perPacket perPacketPolicy
	rxHook    receiverHook

	// trace is nil unless telemetry is enabled; the flowlet bookkeeping in
	// FromVM sits behind a single nil check so the disabled hot path is
	// unchanged.
	trace *telemetry.Tracer

	// deliverFn and fromVMFn are v.deliver and v.FromVM bound once at
	// construction; taking a method value per delivered packet, or per
	// endpoint that transmits through FromVM, would allocate.
	deliverFn, fromVMFn func(*packet.Packet)

	// endpoints maps an arriving inner 5-tuple to its VM-side handler.
	endpoints map[packet.FiveTuple]endpoint

	// peers is the receiver-side state of every remote hypervisor that sent
	// something to relay or a delay sample to adapt the gap to.
	peers map[packet.HostID]*peer

	// OnProbeEcho, when set, receives discovery echoes (the prober).
	OnProbeEcho func(*packet.Packet)

	// baseGap is the configured flowlet gap the adaptive gap widens.
	baseGap sim.Time

	stats Stats
}

// New creates a virtual switch on host using policy, and installs itself as
// the host's delivery handler.
func New(s *sim.Simulator, host *netem.Host, cfg Config, policy PathPolicy) *VSwitch {
	v := &VSwitch{
		sim:       s,
		host:      host,
		cfg:       cfg,
		self:      host.HostID(),
		pool:      host.Pool(),
		policy:    policy,
		endpoints: map[packet.FiveTuple]endpoint{},
		peers:     map[packet.HostID]*peer{},
	}
	v.perPacket, _ = policy.(perPacketPolicy)
	v.rxHook, _ = policy.(receiverHook)
	v.deliverFn, v.fromVMFn = v.deliver, v.FromVM
	v.flowlets = clove.NewFlowletTable(cfg.FlowletGap)
	v.baseGap = cfg.FlowletGap
	host.Deliver = v.FromNetwork
	return v
}

// FlowletGap returns the current (possibly adapted) flowlet gap.
func (v *VSwitch) FlowletGap() sim.Time { return v.flowlets.Gap() }

// SetTrace enables flowlet telemetry: every completed flowlet (closed by the
// idle gap that starts the next one on the same flow) is recorded with its
// packet/byte size and the gap that ended it. Nil leaves tracing off.
func (v *VSwitch) SetTrace(tr *telemetry.Tracer) {
	if tr == nil {
		return
	}
	v.trace = tr
}

// adaptGap updates the per-peer delay envelope from a reflected delay
// sample and widens the flowlet gap to cover the largest observed spread,
// so that switching paths after a gap almost never reorders.
func (v *VSwitch) adaptGap(p *peer, delaySec float64) {
	const alpha = 0.125 // EWMA smoothing
	if delaySec < p.delayLo {
		p.delayLo = delaySec
	} else {
		p.delayLo += alpha * (delaySec - p.delayLo) * 0.1 // slow upward drift of the floor
	}
	if delaySec > p.delayHi {
		p.delayHi = delaySec
	} else {
		p.delayHi -= alpha * (p.delayHi - delaySec) * 0.1 // slow decay of the ceiling
	}

	// A peer without samples spreads -Inf and never wins.
	var maxSpread float64
	for _, q := range v.peers {
		if s := q.delayHi - q.delayLo; s > maxSpread {
			maxSpread = s
		}
	}
	gap := v.baseGap + sim.FromSeconds(maxSpread)
	v.flowlets.SetGap(gap)
}

// Host returns the underlying NIC attachment.
func (v *VSwitch) Host() *netem.Host { return v.host }

// Policy returns the installed path policy.
func (v *VSwitch) Policy() PathPolicy { return v.policy }

// SetPaths installs a discovered path set into the policy, reporting the
// installation to the observer first (the oracle's conn-consistency
// invariant needs to know which ports are legal before the first pick can
// use them). All control-plane installs — the prober and the oracle-walk
// setup — go through here; tests poking a bare policy may call
// Policy().SetPaths directly.
func (v *VSwitch) SetPaths(dst packet.HostID, ports []uint16) {
	if o := v.pool.Obs(); o != nil {
		o.PolicyPaths(v.self, dst, ports)
	}
	v.policy.SetPaths(dst, ports)
}

// Stats returns a snapshot of the counters.
func (v *VSwitch) Stats() Stats { return v.stats }

// Flowlets reports how many flowlets the source side has created.
func (v *VSwitch) Flowlets() int64 { return v.flowlets.Flowlets() }

// FromVMFunc returns FromVM bound to v, made once per vswitch: an endpoint
// that stores it as its output allocates nothing.
func (v *VSwitch) FromVMFunc() func(*packet.Packet) { return v.fromVMFn }

// EndpointFunc is a VM-side handler in static form: it receives the operand
// registered with it and a packet it takes ownership of.
type EndpointFunc func(a any, pkt *packet.Packet)

// endpoint is one registered VM-side handler: fn(a, pkt).
type endpoint struct {
	fn EndpointFunc
	a  any
}

// Register installs the VM-side handler for packets whose inner 5-tuple
// equals match (use flow for a receiver, flow.Reverse() for a sender's ACK
// stream).
func (v *VSwitch) Register(match packet.FiveTuple, handler func(*packet.Packet)) {
	v.RegisterCall(match, callHandler, handler)
}

func callHandler(h any, pkt *packet.Packet) { h.(func(*packet.Packet))(pkt) }

// RegisterCall installs fn(a, pkt) as the handler for packets whose inner
// 5-tuple equals match. With fn a static function and a a pointer to the
// endpoint (the sim.AtCall idiom) this allocates nothing per endpoint,
// where a method value passed to Register costs a closure.
func (v *VSwitch) RegisterCall(match packet.FiveTuple, fn EndpointFunc, a any) {
	v.endpoints[match] = endpoint{fn, a}
}

// FromVM accepts a packet from the tenant VM, encapsulates it, picks the
// path, piggybacks any pending feedback for the destination hypervisor, and
// transmits it.
func (v *VSwitch) FromVM(pkt *packet.Packet) {
	dstHyp := packet.HostID(pkt.Inner.Dst) // one VM per host: identity mapping
	now := v.sim.Now()

	var port uint16
	if v.perPacket != nil {
		port = v.perPacket.PickPortPacket(dstHyp, pkt.Inner, pkt.PayloadLen)
	} else {
		e, isNew := v.flowlets.Touch(pkt.Inner, now)
		if tr := v.trace; tr != nil {
			if isNew && e.Packets > 0 {
				// The previous flowlet of this flow just closed: record it
				// before PickPort overwrites the pinned port. The flow's last
				// flowlet never closes, so it gets no record.
				tr.Flowlet(now, pkt.Inner, e.ID-1, e.Port, e.Packets, e.Bytes, e.LastGap)
				e.Packets, e.Bytes = 0, 0
			}
			e.Packets++
			e.Bytes += int64(pkt.PayloadLen)
		}
		if isNew {
			e.Port = v.policy.PickPort(dstHyp, pkt.Inner, e.ID)
		}
		port = e.Port
		if o := v.pool.Obs(); o != nil {
			o.FlowletPick(pkt.Inner, e.ID, port)
		}
	}

	v.encap(pkt, dstHyp, port).ECT = true
	if v.cfg.RequestINT {
		pkt.INT.Enabled = true
	}
	if v.cfg.MeasureLatency {
		pkt.SentAtNs = int64(now)
	}
	if fb, ok := v.takeFeedback(dstHyp, now); ok {
		pkt.Encap.Feedback = fb
		v.stats.FeedbackPiggy++
	}
	v.stats.Encapped++
	v.host.Send(pkt)
}

// SendProbe emits a discovery probe toward dst with the given candidate
// source port and TTL. Echoes come back through OnProbeEcho.
func (v *VSwitch) SendProbe(dst packet.HostID, srcPort uint16, ttl int, probeID uint32) {
	p := v.pool.Get()
	p.Kind = packet.KindProbe
	p.ProbeID = probeID
	p.ProbePort = srcPort
	p.TTL = ttl
	p.HopIndex = ttl
	v.encap(p, dst, srcPort)
	v.host.Send(p)
}

// encap attaches pkt's overlay header, addressed from this hypervisor to dst
// with outer source port port, and returns it.
func (v *VSwitch) encap(pkt *packet.Packet, dst packet.HostID, port uint16) *packet.Encap {
	e := pkt.AddEncap()
	e.SrcHyp = v.self
	e.DstHyp = dst
	e.SrcPort = port
	e.DstPort = EncapDstPort
	return e
}

// FromNetwork handles every packet arriving at the NIC.
func (v *VSwitch) FromNetwork(pkt *packet.Packet) {
	now := v.sim.Now()
	switch pkt.Kind {
	case packet.KindProbeEcho:
		v.stats.ProbeEchoes++
		if v.OnProbeEcho != nil {
			// The hook may inspect but not retain the echo: it is released
			// as soon as the hook returns.
			v.OnProbeEcho(pkt)
		}
		v.pool.Put(pkt)
		return
	case packet.KindProbe:
		// Probe outlived the path: we are the destination. Answer like a
		// traceroute endpoint so the prober learns the path length.
		v.answerProbe(pkt)
		return
	case packet.KindFeedback:
		if pkt.Encap != nil && pkt.Encap.Feedback.Valid {
			v.stats.FeedbackReceived++
			v.policy.OnFeedback(pkt.Encap.SrcHyp, pkt.Encap.Feedback, now)
		}
		v.pool.Put(pkt)
		return
	}

	if pkt.Encap == nil {
		v.deliver(pkt) // non-overlay packet: deliver directly
		return
	}
	remote := pkt.Encap.SrcHyp

	// 1. Intercept congestion state about the forward path remote->self.
	port := pkt.Encap.SrcPort
	if pkt.Encap.CE {
		v.stats.CEObserved++
		p := v.peer(remote)
		p.paths.NoteCE(port)
		v.armStandalone(p)
	}
	if pkt.INT.Enabled {
		v.peer(remote).paths.NoteMetric(port, pkt.INT.MaxUtil)
	}
	if v.cfg.MeasureLatency && pkt.SentAtNs > 0 {
		// One-way path delay as the reflected metric; the table's
		// least-metric selection then prefers the currently-fastest path.
		v.peer(remote).paths.NoteMetric(port, (now - sim.Time(pkt.SentAtNs)).Seconds())
	}

	// 2. Consume feedback the remote reflected about our paths to it.
	if pkt.Encap.Feedback.Valid {
		v.stats.FeedbackReceived++
		v.policy.OnFeedback(remote, pkt.Encap.Feedback, now)
		if v.cfg.AdaptiveFlowletGap && v.cfg.MeasureLatency && pkt.Encap.Feedback.HasUtil {
			v.adaptGap(v.peer(remote), pkt.Encap.Feedback.Util)
		}
	}

	// 3. Decapsulate; the inner packet lives on toward the VM.
	outerCE := pkt.Encap.CE
	pkt.Encap = nil
	v.stats.Decapped++

	if v.cfg.MaskECN {
		// Clove hides underlay CE from the VM...
		if outerCE {
			v.stats.ECNMasked++
		}
		// ...unless every path we use toward the remote VM is congested:
		// then relay ECN into the inner ACK stream so the sending VM backs
		// off (Sec. 3.2).
		if pkt.Flags.Has(packet.FlagACK) && pkt.PayloadLen == 0 &&
			v.policy.AllCongested(remote, now) {
			pkt.Flags |= packet.FlagECE
			v.stats.ECNRelayedToVM++
		}
	} else if outerCE {
		// RFC 6040: propagate CE to the inner header.
		pkt.InnerCE = true
	}

	// 4. Deliver to the VM, via the policy's receiver hook if any.
	if v.rxHook != nil {
		v.rxHook.OnDeliver(pkt, v.deliverFn)
		return
	}
	v.deliver(pkt)
}

// deliver hands the packet to the registered VM-side endpoint, which takes
// ownership (the TCP endpoints release consumed packets themselves).
func (v *VSwitch) deliver(pkt *packet.Packet) {
	ep := v.endpoints[pkt.Inner]
	if ep.fn == nil {
		v.stats.NoHandler++
		v.pool.Put(pkt)
		return
	}
	ep.fn(ep.a, pkt)
}

func (v *VSwitch) answerProbe(probe *packet.Packet) {
	echo := v.pool.Get()
	echo.Kind = packet.KindProbeEcho
	echo.ProbeID = probe.ProbeID
	echo.ProbePort = probe.ProbePort
	echo.HopIndex = probe.HopIndex
	echo.EchoNode = v.host.ID()
	echo.EchoLink = -1
	echo.TTL = 64
	v.encap(echo, probe.Encap.SrcHyp, probe.ProbePort)
	// The probe terminates here; the echo replaces it on the wire.
	v.pool.Put(probe)
	v.host.Send(echo)
}

// peer returns remote's receiver-side record, making it on first use.
func (v *VSwitch) peer(remote packet.HostID) *peer {
	p := v.peers[remote]
	if p == nil {
		p = &peer{id: remote, delayLo: math.Inf(1), delayHi: math.Inf(-1)}
		v.peers[remote] = p
	}
	return p
}

// takeFeedback takes the observation about paths from remote to us that is
// due for relay, if any (clove.PeerPaths.Take, rate-limited per path).
func (v *VSwitch) takeFeedback(remote packet.HostID, now sim.Time) (packet.Feedback, bool) {
	p := v.peers[remote]
	if p == nil {
		return packet.Feedback{}, false
	}
	return p.paths.Take(now, v.cfg.RelayInterval)
}

func standaloneFire(v, p any) { v.(*VSwitch).fireStandalone(p.(*peer)) }

// fireStandalone relays p's pending congestion in a feedback packet of its
// own. A due utilization-only report it takes instead is dropped.
func (v *VSwitch) fireStandalone(p *peer) {
	p.armed = false
	fb, ok := v.takeFeedback(p.id, v.sim.Now())
	if !ok || !fb.ECN {
		return
	}
	v.stats.FeedbackStandalone++
	pkt := v.pool.Get()
	pkt.Kind = packet.KindFeedback
	port := portHash(packet.FiveTuple{Src: v.self, Dst: p.id}, uint32(v.sim.Now()))
	v.encap(pkt, p.id, port).Feedback = fb
	v.host.Send(pkt)
}

// armStandalone schedules a standalone feedback packet to p if pending
// congestion state is not piggybacked within RelayInterval.
func (v *VSwitch) armStandalone(p *peer) {
	if p.armed {
		return
	}
	p.armed = true
	v.sim.AfterCall(v.cfg.RelayInterval, standaloneFire, v, p)
}

// String implements fmt.Stringer.
func (v *VSwitch) String() string {
	return fmt.Sprintf("vswitch[%s %s]", v.host.Name(), v.policy.Name())
}
