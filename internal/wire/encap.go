// Package wire implements the byte-level codec of the overlay header the
// real datapath (internal/datapath) puts on the network: an STT-like shim
// whose context field carries Clove's reflected path feedback. The
// simulator mirrors the same fields as structs. (The paper's deployments
// encapsulate in STT or Geneve; the outer IP/TCP/UDP headers are the
// kernel's business here, since the datapath sends over UDP sockets.)
//
// The codec follows the gopacket convention of an explicit, allocation-free
// Put/Unmarshal pair and defensive length validation: truncated input
// returns an error, never panics.
package wire

import (
	"encoding/binary"
	"errors"

	"clove/internal/packet"
)

// ErrTruncated reports input shorter than the header being parsed.
var ErrTruncated = errors.New("wire: truncated packet")

// SttShimLen is the length of the STT-like shim header that follows the
// outer TCP header. Its layout mirrors the fields the paper's Fig. 3 relies
// on: a flags byte, the tenant VLAN/context area, and — crucially for Clove
// — a 64-bit context word whose reserved bits carry the reflected path
// feedback (observed source port, an ECN-seen bit, and a quantized path
// utilization).
const SttShimLen = 18

// Shim flag bits.
const (
	ShimFlagECNFeedback = 1 << 0 // Context carries valid feedback
	ShimFlagUtilValid   = 1 << 1 // Context utilization byte is meaningful
	ShimFlagINTRequest  = 1 << 2 // request per-hop utilization stamping
)

// Feedback is the Clove metadata reflected between hypervisors inside the
// shim context bits: the simulator's packet.Feedback, whose Util (the max
// path utilization in [0,1]) the codec quantizes to 1/255 steps.
type Feedback = packet.Feedback

// SttShim is the overlay shim between the outer transport header and the
// encapsulated tenant frame.
type SttShim struct {
	Version    uint8
	Flags      uint8
	FlowletID  uint32 // flowlet/flowcell sequence (Presto-style reassembly)
	VNI        uint32 // tenant network identifier (24 bits used)
	Feedback   Feedback
	PayloadLen uint16
	// PathPort is the sender's outer source port, restated inside the shim
	// so the receiver can attribute congestion observations to the forward
	// path even when a middle hop rewrites the outer header.
	PathPort uint16
}

// Marshal appends the shim to b.
func (s *SttShim) Marshal(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, SttShimLen)...)
	s.Put(b[off:])
	return b
}

// Put marshals the shim into the first SttShimLen bytes of p, which the
// caller must have sized, and returns SttShimLen. Unlike Marshal it never
// grows a slice, so a preallocated wire buffer round-trips with zero
// allocations — this is the datapath's steady-state encoder.
func (s *SttShim) Put(p []byte) int {
	_ = p[SttShimLen-1]
	flags := s.Flags
	var fbPort uint16
	var fbUtil uint8
	if s.Feedback.Valid {
		flags |= ShimFlagECNFeedback
		fbPort = s.Feedback.Port
		if s.Feedback.HasUtil {
			flags |= ShimFlagUtilValid
			fbUtil = quantizeUtil(s.Feedback.Util)
		}
	}
	p[0] = s.Version
	p[1] = flags
	binary.BigEndian.PutUint16(p[2:], s.PayloadLen)
	binary.BigEndian.PutUint32(p[4:], s.FlowletID)
	binary.BigEndian.PutUint32(p[8:], s.VNI&0xffffff)
	// Context word: feedback port, ECN bit, quantized utilization.
	binary.BigEndian.PutUint16(p[12:], fbPort)
	if s.Feedback.Valid && s.Feedback.ECN {
		p[14] = 1
	} else {
		p[14] = 0
	}
	p[15] = fbUtil
	binary.BigEndian.PutUint16(p[16:], s.PathPort)
	return SttShimLen
}

// Unmarshal parses the shim and returns bytes consumed.
func (s *SttShim) Unmarshal(b []byte) (int, error) {
	if len(b) < SttShimLen {
		return 0, ErrTruncated
	}
	s.Version = b[0]
	s.Flags = b[1] &^ (ShimFlagECNFeedback | ShimFlagUtilValid)
	s.PayloadLen = binary.BigEndian.Uint16(b[2:])
	s.FlowletID = binary.BigEndian.Uint32(b[4:])
	s.VNI = binary.BigEndian.Uint32(b[8:]) & 0xffffff
	s.Feedback = Feedback{}
	if b[1]&ShimFlagECNFeedback != 0 {
		s.Feedback.Valid = true
		s.Feedback.Port = binary.BigEndian.Uint16(b[12:])
		s.Feedback.ECN = b[14]&1 != 0
		if b[1]&ShimFlagUtilValid != 0 {
			s.Feedback.HasUtil = true
			s.Feedback.Util = dequantizeUtil(b[15])
		}
	}
	s.PathPort = binary.BigEndian.Uint16(b[16:])
	return SttShimLen, nil
}

func quantizeUtil(u float64) uint8 {
	if u <= 0 {
		return 0
	}
	if u >= 1 {
		return 255
	}
	return uint8(u*255 + 0.5)
}

func dequantizeUtil(q uint8) float64 { return float64(q) / 255 }
