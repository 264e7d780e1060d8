package netem

import (
	"testing"

	"clove/internal/packet"
)

// TestHashTupleVectors pins hashTuple to outputs recorded from the original
// closure-based implementation (PR 3 tree) before the loop was unrolled.
// Every per-switch ECMP decision — and therefore every discovered path set
// and every golden figure — depends on these exact values, so any drift in
// the unrolled body (byte order, masking, finalizer) must fail loudly here
// rather than silently re-routing the whole fabric.
func TestHashTupleVectors(t *testing.T) {
	vectors := []struct {
		seed uint64
		t5   packet.FiveTuple
		want uint64
	}{
		{0x0000000000000000, packet.FiveTuple{Src: 0, Dst: 0, SrcPort: 0, DstPort: 0, Proto: 0}, 0x8044259ac302db3e},
		{0x0000000000000000, packet.FiveTuple{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: 6}, 0xcac068d854abc154},
		{0x9e3779b97f4a7c15, packet.FiveTuple{Src: 0, Dst: 1, SrcPort: 40000, DstPort: 80, Proto: 6}, 0xf1491a752f6f32a9},
		{0x3c6ef372fe94f82a, packet.FiveTuple{Src: 0, Dst: 1, SrcPort: 40000, DstPort: 80, Proto: 6}, 0xc47ab70f68ecb8df},
		{0x123456789abcdef0, packet.FiveTuple{Src: 31, Dst: 17, SrcPort: 65535, DstPort: 1, Proto: 17}, 0xf06d60ab4bb331cd},
		{0xffffffffffffffff, packet.FiveTuple{Src: -1, Dst: -1, SrcPort: 65535, DstPort: 65535, Proto: 255}, 0x6a72a5d1d66d5ec8},
		{0x0000000000000001, packet.FiveTuple{Src: 100, Dst: 200, SrcPort: 12345, DstPort: 54321, Proto: 6}, 0x3d096a77c2968762},
		{0xdeadbeefcafebabe, packet.FiveTuple{Src: 7, Dst: 7, SrcPort: 7, DstPort: 7, Proto: 7}, 0xffeb48d3cf4e5dce},
	}
	for _, v := range vectors {
		if got := hashTuple(v.seed, v.t5); got != v.want {
			t.Errorf("hashTuple(%#x, %+v) = %#x, want %#x", v.seed, v.t5, got, v.want)
		}
	}
}

// TestHashTupleMatchesByteLoop cross-checks the compressed packet.FoldFNV against a
// straightforward byte-loop reimplementation of the original closure over
// randomized-ish structured inputs, so the table above is not the only line
// of defense.
func TestHashTupleMatchesByteLoop(t *testing.T) {
	ref := func(seed uint64, t5 packet.FiveTuple) uint64 {
		h := uint64(packet.FNVOffset) ^ seed
		mix := func(v uint64) {
			for i := 0; i < 8; i++ {
				h ^= (v >> (8 * i)) & 0xff
				h *= packet.FNVPrime
			}
		}
		mix(uint64(uint32(t5.Src)))
		mix(uint64(uint32(t5.Dst)))
		mix(uint64(t5.SrcPort)<<16 | uint64(t5.DstPort))
		mix(uint64(t5.Proto))
		h ^= seed
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		h *= 0xc4ceb9fe1a85ec53
		h ^= h >> 33
		return h
	}
	seed := uint64(0x9e3779b97f4a7c15)
	for src := int32(0); src < 8; src++ {
		for dst := int32(0); dst < 8; dst++ {
			for port := 0; port < 64; port++ {
				t5 := packet.FiveTuple{
					Src:     packet.HostID(src * 1000003),
					Dst:     packet.HostID(dst * 7777777),
					SrcPort: uint16(32768 + port*997),
					DstPort: uint16(port * 331),
					Proto:   packet.ProtoTCP,
				}
				s := seed * uint64(port+1)
				if got, want := hashTuple(s, t5), ref(s, t5); got != want {
					t.Fatalf("hashTuple(%#x, %+v) = %#x, byte-loop reference says %#x", s, t5, got, want)
				}
			}
		}
	}
}
