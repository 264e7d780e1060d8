// Package packet defines the in-simulator packet model shared by all
// network elements: inner (tenant VM) TCP/IP headers, the overlay
// encapsulation header the hypervisor adds, and optional telemetry
// metadata (INT, CONGA).
//
// The simulator moves packets as structs for speed; the byte-level codecs in
// internal/wire mirror these fields one-to-one for the real datapath.
//
// # Packet ownership and Release
//
// Hot simulation paths recycle packets through a per-simulation Pool rather
// than allocating per segment. The ownership rule is: a packet belongs to
// whichever component currently holds it, and the component that takes it
// OUT of the simulated network — the TCP endpoint that consumes a delivered
// segment, the link or switch that drops it, the vswitch that terminally
// handles a control packet — must release it with Pool.Put. Components that
// forward a packet (links, switches, vswitch encap/decap) pass ownership
// along and must not touch it afterwards; components that intentionally
// retain one (a reorder buffer, a test capturing delivery) take ownership
// and simply never Put it. After Put the packet's contents are zeroed and
// the struct may be reissued by the next Get, so holding a reference across
// a Put is a use-after-release bug.
//
// A packet is ONE object: its overlay and CONGA headers are stored inside it
// (AddEncap, AddConga) and die with it. Packet.Encap and Packet.Conga are
// nil or point at that storage, so a header is never got, put, leaked or
// released apart from its packet, and everything said above about the
// packet covers its header bytes too. Decapsulation is `pkt.Encap = nil`.
package packet

import (
	"fmt"
	"strconv"
)

// HostID identifies a physical server (and its hypervisor) in the fabric.
type HostID int32

// NodeID identifies any forwarding element (switch or host NIC).
type NodeID int32

// LinkID identifies a unidirectional link in the fabric.
type LinkID int32

// Proto is the inner transport protocol number.
type Proto uint8

// Transport protocols used by the tenant traffic model.
const (
	ProtoTCP Proto = 6
	ProtoUDP Proto = 17
)

// FiveTuple is the classic connection identifier. In the simulator, IP
// addresses are host IDs.
type FiveTuple struct {
	Src, Dst         HostID
	SrcPort, DstPort uint16
	Proto            Proto
}

// 64-bit FNV-1a parameters.
const (
	FNVOffset = 14695981039346656037
	FNVPrime  = 1099511628211
)

// Powers of FNVPrime mod 2^64. Folding a zero byte is h *= FNVPrime, so a
// run of k zero bytes folds as one multiply by FNVPrime^k.
const (
	fnvPrime2 = FNVPrime * FNVPrime % (1 << 64)
	fnvPrime4 = fnvPrime2 * fnvPrime2 % (1 << 64)
	fnvPrime6 = fnvPrime4 * fnvPrime2 % (1 << 64)
	fnvPrime8 = fnvPrime4 * fnvPrime4 % (1 << 64)
)

// FNVWord folds v, widened to 8 bytes, into h, least-significant byte
// first. It is bit-identical to the FNV-1a byte loop
//
//	for i := 0; i < 8; i++ { h ^= (uint64(v) >> (8 * i)) & 0xff; h *= FNVPrime }
//
// but the four upper bytes, which are zero, fold as one multiply by
// FNVPrime^4, and the two above a value under 2^16 fold into FNVPrime^6:
// 5 dependent multiplies, or 3, instead of 8. Every ECMP choice, every
// edge source port, and therefore every golden figure depends on these
// exact values (netem's TestHashTupleVectors, vswitch's
// TestPortHashPinnedVectors and FuzzFoldFNV here pin them).
func FNVWord(h uint64, v uint32) uint64 {
	h = (h ^ uint64(v&0xff)) * FNVPrime
	h = (h ^ uint64(v>>8&0xff)) * FNVPrime
	if v < 1<<16 {
		return h * fnvPrime6
	}
	h = (h ^ uint64(v>>16&0xff)) * FNVPrime
	h = (h ^ uint64(v>>24)) * FNVPrime
	return h * fnvPrime4
}

// FoldFNV folds the tuple into h as FNV-1a over one 8-byte word each for
// the source, the destination, the two ports (SrcPort<<16 | DstPort) and
// the protocol: the fold both the switches' ECMP hash and the edge's port
// hash start from. The protocol word is one byte and seven zeros, so it
// folds as (h ^ proto) * FNVPrime^8; the whole tuple costs 12 dependent
// multiplies for host IDs under 2^16 and a non-zero source port, not 32.
func (t FiveTuple) FoldFNV(h uint64) uint64 {
	h = FNVWord(h, uint32(t.Src))
	h = FNVWord(h, uint32(t.Dst))
	h = FNVWord(h, uint32(t.SrcPort)<<16|uint32(t.DstPort))
	return (h ^ uint64(t.Proto)) * fnvPrime8
}

// Reverse returns the tuple of the opposite direction.
func (t FiveTuple) Reverse() FiveTuple {
	return FiveTuple{Src: t.Dst, Dst: t.Src, SrcPort: t.DstPort, DstPort: t.SrcPort, Proto: t.Proto}
}

// String formats the tuple as "src:port>dst:port/proto". It is hand-rolled
// on strconv so trace and debug paths cost one allocation (the returned
// string) instead of fmt's boxing of every operand.
func (t FiveTuple) String() string {
	// Worst case: two int32s (11 runes each), three uint16s (5 each),
	// four separators: 41 bytes. 48 keeps the array comfortably stack-sized.
	var buf [48]byte
	b := strconv.AppendInt(buf[:0], int64(t.Src), 10)
	b = append(b, ':')
	b = strconv.AppendUint(b, uint64(t.SrcPort), 10)
	b = append(b, '>')
	b = strconv.AppendInt(b, int64(t.Dst), 10)
	b = append(b, ':')
	b = strconv.AppendUint(b, uint64(t.DstPort), 10)
	b = append(b, '/')
	b = strconv.AppendUint(b, uint64(t.Proto), 10)
	return string(b)
}

// FlowHandle names one direction of a simulated connection, or one MPTCP
// subflow's direction, by a dense index the cluster assigns when the
// connection's transport is built (vswitch.Flows.Open). The TCP endpoint
// that sends the direction stamps it into Packet.Flow, and the virtual
// switches and the oracle find their per-flow state by it instead of by
// hashing the five-tuple. It never goes on the wire. 0 means no handle:
// probes, echoes and standalone feedback carry none and need no per-flow
// state; a tenant packet without one is a fault (vswitch.VSwitch.FromVM).
type FlowHandle int32

// TCPFlags is the inner TCP flag set (only the bits the model needs).
type TCPFlags uint8

// TCP flag bits.
const (
	FlagSYN TCPFlags = 1 << iota
	FlagACK
	FlagFIN
	FlagECE // ECN echo, receiver -> sender
	FlagCWR // congestion window reduced, sender -> receiver
)

// Has reports whether all bits in mask are set.
func (f TCPFlags) Has(mask TCPFlags) bool { return f&mask == mask }

// Kind discriminates the roles a simulated packet can play.
type Kind uint8

// Packet kinds.
const (
	KindData      Kind = iota // tenant TCP segment (possibly with payload)
	KindProbe                 // path-discovery probe (TTL-limited)
	KindProbeEcho             // reply generated when a probe's TTL expires
	KindFeedback              // standalone Clove feedback (no reverse data to piggyback on)
)

// Wire-size constants in bytes. The simulator prices every packet at
// inner size + encap overhead so that link serialization times are realistic.
const (
	MTU            = 1500     // max inner IP datagram on the wire
	InnerHeaderLen = 54       // Ethernet(14) + IPv4(20) + TCP(20)
	EncapHeaderLen = 76       // outer Eth+IP+TCP + STT-like shim, per Fig. 3
	MaxSegment     = MTU - 40 // MSS for inner TCP: MTU - IP(20) - TCP(20)
	ProbePacketLen = 64
)

// INTMeta carries In-band Network Telemetry state accumulated hop by hop
// (Sec. 3.2, Clove-INT). Each switch raises MaxUtil to its egress link
// utilization as the packet passes.
type INTMeta struct {
	Enabled bool
	MaxUtil float64 // max egress link utilization seen so far, 0..1+
	Hops    int     // number of switches that stamped the packet
}

// Feedback is the Clove metadata the destination hypervisor reflects to the
// source inside reserved encapsulation-header bits (the STT context field,
// Sec. 4): which forward-direction source port the observation is about, and
// either a binary congestion bit (Clove-ECN) or a path utilization
// (Clove-INT).
type Feedback struct {
	Valid   bool
	Port    uint16  // encap source port of the observed forward path
	ECN     bool    // forward path experienced congestion marking
	HasUtil bool    // Util field is meaningful (Clove-INT)
	Util    float64 // max path utilization observed on the forward path
}

// Encap is the overlay encapsulation header added by the source hypervisor.
// The outer source port is Clove's path-steering knob: physical switches
// hash the outer 5-tuple for ECMP.
type Encap struct {
	SrcHyp, DstHyp HostID
	SrcPort        uint16 // rotated by the load-balancing scheme
	DstPort        uint16 // fixed per encap protocol (e.g. 7471 for STT)
	ECT            bool   // outer header is ECN-capable (set by hypervisor)
	CE             bool   // congestion experienced, set by switches
	Feedback       Feedback
}

// Conga is the per-packet CONGA metadata (piggybacked in a custom fabric
// header in the real system). Present only when the fabric runs CONGA.
type Conga struct {
	LBTag    uint8   // uplink port chosen by the source leaf
	CEMetric float64 // max link utilization accumulated along path
	// Feedback direction: metric for the reverse leaf-to-leaf path.
	FbValid  bool
	FbLBTag  uint8
	FbMetric float64
}

// Packet is one simulated packet. Fields are grouped inner-to-outer.
type Packet struct {
	Kind Kind

	// Inner tenant headers (valid for KindData).
	Inner      FiveTuple
	Flow       FlowHandle // sender's handle for Inner's direction, 0 if none; not a header
	Seq        int64      // first payload byte offset, TCP-style
	Ack        int64      // cumulative ACK offset
	Flags      TCPFlags
	PayloadLen int
	InnerECT   bool // tenant stack is ECN-capable
	InnerCE    bool // CE visible to the tenant stack (hypervisor-controlled)

	// Overlay encapsulation; nil before encap / after decap, otherwise
	// normally aimed at this packet's own storage by AddEncap.
	Encap *Encap

	// Telemetry. Conga is nil or, normally, aimed at this packet's own
	// storage by AddConga.
	INT   INTMeta
	Conga *Conga

	// Probe state (valid for KindProbe / KindProbeEcho).
	TTL       int
	ProbeID   uint32
	ProbePort uint16 // encap source port under test
	EchoNode  NodeID // switch that answered
	EchoLink  LinkID // egress link the switch chose for the probe
	HopIndex  int    // distance at which the echo was generated

	// SentAtNs is the hypervisor encapsulation timestamp in simulated
	// nanoseconds, used by the path-latency feedback variant (Sec. 7 "Use
	// of path latency": NIC timestamping + synchronized clocks). Zero when
	// not stamped.
	SentAtNs int64

	// Header storage behind Encap and Conga (see AddEncap, AddConga).
	encap Encap
	conga Conga
}

// AddEncap attaches a zeroed overlay header stored inside the packet and
// returns it for the caller to fill in.
func (p *Packet) AddEncap() *Encap {
	p.encap = Encap{}
	p.Encap = &p.encap
	return p.Encap
}

// AddConga attaches a zeroed CONGA header stored inside the packet and
// returns it for the caller to fill in.
func (p *Packet) AddConga() *Conga {
	p.conga = Conga{}
	p.Conga = &p.conga
	return p.Conga
}

// Size returns the packet's total wire size in bytes, including inner
// headers and, when present, encapsulation overhead.
func (p *Packet) Size() int {
	switch p.Kind {
	case KindProbe, KindProbeEcho, KindFeedback:
		return ProbePacketLen + EncapHeaderLen
	}
	n := InnerHeaderLen + p.PayloadLen
	if p.Encap != nil {
		n += EncapHeaderLen
	}
	return n
}

// OuterTuple returns the header fields a physical switch hashes for ECMP:
// the encapsulation 5-tuple when present, the inner 5-tuple otherwise.
func (p *Packet) OuterTuple() FiveTuple {
	if p.Encap != nil {
		return FiveTuple{
			Src:     p.Encap.SrcHyp,
			Dst:     p.Encap.DstHyp,
			SrcPort: p.Encap.SrcPort,
			DstPort: p.Encap.DstPort,
			Proto:   ProtoTCP, // STT looks like TCP to the fabric
		}
	}
	return p.Inner
}

// OuterDst returns the destination the fabric routes on.
func (p *Packet) OuterDst() HostID {
	if p.Encap != nil {
		return p.Encap.DstHyp
	}
	return p.Inner.Dst
}

// MarkCE sets the congestion-experienced bit on the outermost ECN-capable
// header and reports whether the packet was markable. Non-ECT packets are
// not marked (a real switch would drop instead; our queues still drop on
// overflow independently).
func (p *Packet) MarkCE() bool {
	if p.Encap != nil {
		if !p.Encap.ECT {
			return false
		}
		p.Encap.CE = true
		return true
	}
	if !p.InnerECT {
		return false
	}
	p.InnerCE = true
	return true
}

// CEMarked reports whether the outermost header carries a CE mark.
func (p *Packet) CEMarked() bool {
	if p.Encap != nil {
		return p.Encap.CE
	}
	return p.InnerCE
}

// Clone returns a deep copy of the packet: the clone's Encap and Conga aim
// at its own storage, so the two can diverge.
func (p *Packet) Clone() *Packet {
	q := *p
	if p.Encap != nil {
		*q.AddEncap() = *p.Encap
	}
	if p.Conga != nil {
		*q.AddConga() = *p.Conga
	}
	return &q
}

// String renders a compact human-readable description for logs and tests.
func (p *Packet) String() string {
	switch p.Kind {
	case KindProbe:
		return fmt.Sprintf("probe id=%d port=%d ttl=%d", p.ProbeID, p.ProbePort, p.TTL)
	case KindProbeEcho:
		return fmt.Sprintf("probe-echo id=%d port=%d hop=%d node=%d", p.ProbeID, p.ProbePort, p.HopIndex, p.EchoNode)
	case KindFeedback:
		if p.Encap != nil {
			return fmt.Sprintf("feedback %d->%d port=%d ecn=%v", p.Encap.SrcHyp, p.Encap.DstHyp, p.Encap.Feedback.Port, p.Encap.Feedback.ECN)
		}
		return "feedback"
	}
	return fmt.Sprintf("data %s seq=%d ack=%d len=%d flags=%03b", p.Inner, p.Seq, p.Ack, p.PayloadLen, p.Flags)
}
