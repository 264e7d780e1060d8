// Package oracle is the simulator's opt-in correctness oracle: an
// implementation of packet.Observer (plus a sim event hook) that shadows a
// run and checks the invariants the fast path is trusted to preserve.
//
// # Hook contract
//
// The oracle attaches through two hooks and relies on their contract:
//
//   - packet.Pool.SetObserver distributes the oracle to every datapath
//     component sharing the pool (links, hosts, TCP endpoints, vswitches).
//     Each hook site fires synchronously at the point the event occurs,
//     before the component acts on its outcome, and guards with a nil
//     check — so a disabled oracle costs one predictable branch and zero
//     allocations per hook site (see packet.Observer).
//   - sim.Simulator.SetEventHook runs AfterEvent after every fired event's
//     callback, giving the oracle a place for periodic self-audits.
//
// The oracle only reads; it never retains, mutates, or releases packets, so
// a run with the oracle installed is byte-identical to one without.
//
// # Invariant classes
//
//   - conservation: every packet issued by the pool is, at any moment,
//     exactly one of in-flight / delivered / dropped, and once the event
//     queue drains every packet has been released back. A retained packet
//     (skipped Put) surfaces as a leak at Check time.
//   - pool: no double-release and no use of a packet after its release
//     (the datapath hooks double as use-after-release detectors). A
//     packet's overlay and CONGA headers are stored in the packet, so this
//     covers them too.
//   - tcp-stream: each TCP receiver observes its sender's byte stream in
//     order, exactly once — senders emit contiguous coverage [0, maxSent)
//     (retransmits re-send inside it), receivers advance their in-order
//     point contiguously and never past what was sent, across retransmits
//     and MPTCP subflow striping (subflows are distinct five-tuples).
//   - queue-ecn: enqueue occupancy stays below capacity, drop-tail drops
//     happen only at capacity, and a packet is CE-marked at enqueue iff the
//     queue met the ECN threshold and the packet was ECN-capable.
//   - routing: no packet is forwarded over an administratively-down link,
//     and every packet a host NIC receives is addressed to that host.
//   - flowlet: all packets of one (flow, flowlet) keep one outer source
//     port — the property that makes a flowlet atomic on one path.
//   - conn-consistency (opt-in, RequireConnConsistency): a connection's
//     outer source port changes only if the port it was using left the
//     installed path set (PolicyPaths) at some point since it was picked —
//     the relaxation of flowlet pinning that stateless consistent-hashing
//     schemes (Concury) guarantee instead of per-flowlet state. Enabled
//     only for schemes that promise it; flowlet-rotating schemes move
//     ports at every gap by design.
//
// Violations are recorded (capped, counted) rather than panicking, so a run
// completes and Check/Err report everything found.
package oracle

import (
	"fmt"

	"clove/internal/packet"
)

// Violation is one detected invariant breach.
type Violation struct {
	// Class is the invariant class: "conservation", "pool", "tcp-stream",
	// "queue-ecn", "routing", "flowlet", or "conn-consistency".
	Class string
	// Msg describes the specific breach.
	Msg string
}

func (v Violation) String() string { return v.Class + ": " + v.Msg }

// maxViolations bounds how many violations are recorded verbatim; the total
// count keeps incrementing past the cap.
const maxViolations = 64

// auditInterval is how many fired events pass between periodic self-audits.
const auditInterval = 1 << 16

type pktState uint8

const (
	stFree pktState = iota // released to the pool
	stLive                 // issued and owned by some component
)

type streamState struct {
	maxSent   int64 // contiguous sent coverage is [0, maxSent)
	delivered int64 // receiver's in-order point
}

type flowletKey struct {
	flow packet.FiveTuple
	id   uint32
}

// pairKey identifies a (source hypervisor, destination hypervisor) path
// table for the conn-consistency invariant.
type pairKey struct {
	src, dst packet.HostID
}

// pathSetState tracks one pair's installed-port history: the current set
// and, per port, the last install version at which it was absent. Versions
// count PolicyPaths events for the pair (0 = before any install).
type pathSetState struct {
	version    int
	present    map[uint16]bool
	lastAbsent map[uint16]int
}

// connPick is the conn-consistency record of a connection's current port:
// the port and the pair's install version when that port was first picked.
type connPick struct {
	port    uint16
	version int
}

// Oracle shadows one simulation run. Install with pool.SetObserver(o) on
// every pool of the run and sim.SetEventHook(o.AfterEvent) on every
// Simulator (a sharded run has one of each per event domain); call Check
// once the run finishes. Not safe for concurrent use — one Oracle per run,
// matching the simulator's own single-threaded contract.
type Oracle struct {
	pkts map[*packet.Packet]pktState

	created  int64 // packets issued (incl. implicitly registered ones)
	released int64 // packets released
	live     int64 // created - released, cached for the periodic audit

	linkDown map[packet.LinkID]bool // unknown links are up

	streams  map[packet.FiveTuple]*streamState
	flowlets map[flowletKey]uint16

	// Conn-consistency state: installed path sets per pair (always
	// tracked; installs are control-plane-rare) and, when connCheck is
	// enabled, each connection's current (port, pick-version).
	connCheck bool
	pathSets  map[pairKey]*pathSetState
	conns     map[packet.FiveTuple]connPick

	events     uint64
	violations []Violation
	count      int64
}

// New returns an empty oracle.
func New() *Oracle {
	return &Oracle{
		pkts:     map[*packet.Packet]pktState{},
		linkDown: map[packet.LinkID]bool{},
		streams:  map[packet.FiveTuple]*streamState{},
		flowlets: map[flowletKey]uint16{},
		pathSets: map[pairKey]*pathSetState{},
		conns:    map[packet.FiveTuple]connPick{},
	}
}

// RequireConnConsistency arms the conn-consistency invariant: call it for
// runs of schemes that guarantee per-connection path stability (Concury).
// Without it, PolicyPaths installs are still tracked but picks are not
// judged — flowlet-rotating schemes legitimately move connections at every
// flowlet gap.
func (o *Oracle) RequireConnConsistency() { o.connCheck = true }

func (o *Oracle) violationf(class, format string, args ...any) {
	o.count++
	if len(o.violations) < maxViolations {
		o.violations = append(o.violations, Violation{Class: class, Msg: fmt.Sprintf(format, args...)})
	}
}

// Violations returns the recorded violations (capped at maxViolations).
func (o *Oracle) Violations() []Violation { return o.violations }

// Count returns the total number of violations detected, including any past
// the recording cap.
func (o *Oracle) Count() int64 { return o.count }

// Err returns nil when no violation was detected, otherwise an error
// naming the first violation and the total count.
func (o *Oracle) Err() error {
	if o.count == 0 {
		return nil
	}
	return fmt.Errorf("oracle: %d violation(s); first: %s", o.count, o.violations[0])
}

// Check runs the end-of-run audit and returns the accumulated verdict.
// When pendingEvents is 0 the event queue drained naturally, so every
// tracked packet must have been released — anything still live is a
// conservation leak. A run stopped early (pendingEvents > 0)
// legitimately has packets in flight, so the leak check is skipped.
func (o *Oracle) Check(pendingEvents int) error {
	if pendingEvents == 0 {
		leaked := 0
		for pkt, st := range o.pkts {
			if st != stFree {
				leaked++
				o.violationf("conservation", "packet leaked (never released): %s", pkt)
			}
		}
		if leaked == 0 && o.live != 0 {
			o.violationf("conservation", "live counter %d at drain with no leaked packets (accounting bug)", o.live)
		}
	}
	return o.Err()
}

// AfterEvent is the sim event hook: counts events and periodically audits
// the cached live counter against a map scan.
func (o *Oracle) AfterEvent() {
	o.events++
	if o.events%auditInterval != 0 {
		return
	}
	var live int64
	for _, st := range o.pkts {
		if st == stLive {
			live++
		}
	}
	if live != o.live {
		o.violationf("conservation", "audit after %d events: %d live packets tracked, counter says %d", o.events, live, o.live)
		o.live = live // resync so one bug doesn't repeat every interval
	}
}

// register notes a packet the oracle has not seen through PoolGet — a raw
// struct or a Clone — as live. Such packets still get conservation and
// use-after-release coverage from their first observed event onward.
func (o *Oracle) register(pkt *packet.Packet) {
	o.pkts[pkt] = stLive
	o.created++
	o.live++
}

// checkLive verifies a datapath hook is not seeing a released packet.
func (o *Oracle) checkLive(pkt *packet.Packet, where string) {
	st, ok := o.pkts[pkt]
	if !ok {
		o.register(pkt)
		return
	}
	if st == stFree {
		o.violationf("pool", "use after release at %s: %s", where, pkt)
	}
}

// --- packet.Observer: pool ---

// PoolGet implements packet.Observer.
func (o *Oracle) PoolGet(pkt *packet.Packet) {
	if st, ok := o.pkts[pkt]; ok && st != stFree {
		// The pool reissued a struct the oracle still considers owned —
		// only possible if internal accounting broke, since Put gates entry
		// to the free list.
		o.violationf("pool", "pool issued a packet still marked live: %s", pkt)
		return
	}
	o.pkts[pkt] = stLive
	o.created++
	o.live++
}

// PoolPut implements packet.Observer.
func (o *Oracle) PoolPut(pkt *packet.Packet) {
	st, ok := o.pkts[pkt]
	if !ok {
		// First sighting: a raw struct released into the pool. Count both
		// sides so conservation stays balanced.
		o.register(pkt)
		st = stLive
	}
	if st == stFree {
		o.violationf("pool", "double release: %s", pkt)
		return
	}
	o.pkts[pkt] = stFree
	o.released++
	o.live--
}

// --- packet.Observer: links ---

// LinkSetUp implements packet.Observer.
func (o *Oracle) LinkSetUp(link packet.LinkID, up bool) {
	o.linkDown[link] = !up
}

// LinkEnqueue implements packet.Observer.
func (o *Oracle) LinkEnqueue(link packet.LinkID, pkt *packet.Packet, qlenBefore, queueCap, ecnK int, marked bool) {
	o.checkLive(pkt, "link enqueue")
	if qlenBefore >= queueCap {
		o.violationf("queue-ecn", "link %d accepted a packet at occupancy %d >= capacity %d", link, qlenBefore, queueCap)
	}
	markable := pkt.Encap != nil && pkt.Encap.ECT || pkt.Encap == nil && pkt.InnerECT
	wantMark := ecnK > 0 && qlenBefore >= ecnK && markable
	if marked != wantMark {
		o.violationf("queue-ecn", "link %d CE mark = %v, want %v (qlen %d, K %d, markable %v)", link, marked, wantMark, qlenBefore, ecnK, markable)
	}
	if o.linkDown[link] {
		o.violationf("routing", "link %d enqueued a packet while down: %s", link, pkt)
	}
}

// LinkDrop implements packet.Observer.
func (o *Oracle) LinkDrop(link packet.LinkID, pkt *packet.Packet, reason packet.DropReason, qlenBefore, queueCap int) {
	o.checkLive(pkt, "link drop")
	if reason == packet.DropQueueFull && qlenBefore < queueCap {
		o.violationf("queue-ecn", "link %d drop-tail dropped at occupancy %d < capacity %d", link, qlenBefore, queueCap)
	}
}

// LinkDeliver implements packet.Observer.
func (o *Oracle) LinkDeliver(link packet.LinkID, pkt *packet.Packet) {
	o.checkLive(pkt, "link deliver")
	if o.linkDown[link] {
		o.violationf("routing", "link %d delivered a packet while down: %s", link, pkt)
	}
}

// --- packet.Observer: hosts ---

// HostDeliver implements packet.Observer.
func (o *Oracle) HostDeliver(host packet.HostID, pkt *packet.Packet) {
	o.checkLive(pkt, "host deliver")
	if dst := pkt.OuterDst(); dst != host {
		o.violationf("routing", "host %d received a packet addressed to %d: %s", host, dst, pkt)
	}
}

// --- packet.Observer: TCP streams ---

// StreamSent implements packet.Observer.
func (o *Oracle) StreamSent(flow packet.FiveTuple, seq, end int64, _ bool) {
	s := o.streams[flow]
	if s == nil {
		s = &streamState{}
		o.streams[flow] = s
	}
	if seq < 0 || end <= seq {
		o.violationf("tcp-stream", "%s sent empty or negative range [%d,%d)", flow, seq, end)
		return
	}
	// Contiguous coverage: a sender may re-send any already-covered bytes
	// (retransmission, whether or not flagged as one — go-back-N re-emits
	// with the normal path) but may never leave a gap.
	if seq > s.maxSent {
		o.violationf("tcp-stream", "%s sent [%d,%d) leaving gap after %d", flow, seq, end, s.maxSent)
	}
	if end > s.maxSent {
		s.maxSent = end
	}
}

// StreamDeliver implements packet.Observer.
func (o *Oracle) StreamDeliver(flow packet.FiveTuple, from, to int64) {
	s := o.streams[flow]
	if s == nil {
		o.violationf("tcp-stream", "%s delivered [%d,%d) with no bytes ever sent", flow, from, to)
		return
	}
	if from != s.delivered {
		o.violationf("tcp-stream", "%s delivery from %d, want contiguous from %d", flow, from, s.delivered)
	}
	if to <= from {
		o.violationf("tcp-stream", "%s empty delivery [%d,%d)", flow, from, to)
		return
	}
	if to > s.maxSent {
		o.violationf("tcp-stream", "%s delivered [%d,%d) beyond sent coverage %d", flow, from, to, s.maxSent)
	}
	if to > s.delivered {
		s.delivered = to
	}
}

// --- packet.Observer: flowlets ---

// FlowletPick implements packet.Observer.
func (o *Oracle) FlowletPick(flow packet.FiveTuple, flowletID uint32, port uint16) {
	k := flowletKey{flow: flow, id: flowletID}
	if prev, ok := o.flowlets[k]; ok {
		if prev != port {
			o.violationf("flowlet", "%s flowlet %d switched outer port %d -> %d mid-flowlet", flow, flowletID, prev, port)
		}
		return
	}
	o.flowlets[k] = port
	if o.connCheck {
		o.checkConnConsistency(flow, port)
	}
}

// checkConnConsistency judges a new flowlet's port against the connection's
// previous one. A change is legal only if the previous port was absent from
// the pair's installed set at some install version since it was picked
// (including "absent right now" and "picked before any install"). The
// record is updated only when the port actually changes, so mid-run
// installs cannot launder a pinned port's age.
func (o *Oracle) checkConnConsistency(flow packet.FiveTuple, port uint16) {
	pk := pairKey{src: flow.Src, dst: flow.Dst}
	ps := o.pathSets[pk]
	version := 0
	if ps != nil {
		version = ps.version
		// A pick of a port outside the current set (fallback during a
		// withdrawal) is direct evidence the port is absent at this
		// version; record it so moving off it later stays legal.
		if !ps.present[port] && ps.lastAbsent[port] < version {
			ps.lastAbsent[port] = version
		}
	}
	prev, ok := o.conns[flow]
	if !ok {
		o.conns[flow] = connPick{port: port, version: version}
		return
	}
	if prev.port == port {
		return
	}
	if ps != nil && ps.present[prev.port] && ps.lastAbsent[prev.port] < prev.version {
		o.violationf("conn-consistency",
			"%s moved outer port %d -> %d while %d stayed installed since its pick (pick v%d, now v%d)",
			flow, prev.port, port, prev.port, prev.version, version)
	}
	o.conns[flow] = connPick{port: port, version: version}
}

// PolicyPaths implements packet.Observer: record the pair's new installed
// set and note which previously-present ports just left it.
func (o *Oracle) PolicyPaths(src, dst packet.HostID, ports []uint16) {
	pk := pairKey{src: src, dst: dst}
	ps := o.pathSets[pk]
	if ps == nil {
		ps = &pathSetState{present: map[uint16]bool{}, lastAbsent: map[uint16]int{}}
		o.pathSets[pk] = ps
	}
	ps.version++
	next := make(map[uint16]bool, len(ports))
	for _, p := range ports {
		next[p] = true
	}
	for p := range ps.present {
		if !next[p] {
			ps.lastAbsent[p] = ps.version
		}
	}
	ps.present = next
}

// Stats is a snapshot of what the oracle observed (tests, telemetry).
type Stats struct {
	PacketsCreated  int64
	PacketsReleased int64
	PacketsLive     int64
	Streams         int
	Flowlets        int
	Events          uint64
}

// Stats returns observation counters.
func (o *Oracle) Stats() Stats {
	return Stats{
		PacketsCreated:  o.created,
		PacketsReleased: o.released,
		PacketsLive:     o.live,
		Streams:         len(o.streams),
		Flowlets:        len(o.flowlets),
		Events:          o.events,
	}
}

var _ packet.Observer = (*Oracle)(nil)
