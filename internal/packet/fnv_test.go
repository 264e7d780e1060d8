package packet

import "testing"

// fnvBytes is the literal FNV-1a byte loop over v's eight bytes, least
// significant first: the definition FNVWord and FoldFNV must reproduce.
func fnvBytes(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v >> (8 * i) & 0xff
		h *= FNVPrime
	}
	return h
}

func foldRef(h uint64, t FiveTuple) uint64 {
	h = fnvBytes(h, uint64(uint32(t.Src)))
	h = fnvBytes(h, uint64(uint32(t.Dst)))
	h = fnvBytes(h, uint64(t.SrcPort)<<16|uint64(t.DstPort))
	return fnvBytes(h, uint64(t.Proto))
}

// FuzzFoldFNV checks the compressed fold (zero bytes folded as powers of the
// prime) against the byte loop for arbitrary tuples, seeds and salt words,
// on both sides of FNVWord's 2^16 branch and for negative host IDs. The
// seed corpus walks every byte position of a word, so a plain `go test`
// covers both branches.
func FuzzFoldFNV(f *testing.F) {
	words := []uint32{0, 1, 0xff, 0x100, 0xffff, 0x10000, 0x10001, 0xffffff, 0x1000000, 0x7fffffff, 0x80000000, 0xffffffff}
	for i, v := range words {
		h := []uint64{0, 1, FNVOffset, 0x9e3779b97f4a7c15, ^uint64(0)}[i%5]
		f.Add(h, int32(v), int32(words[len(words)-1-i]), uint16(v>>16), uint16(v), uint8(v), v)
	}
	f.Fuzz(func(t *testing.T, h uint64, src, dst int32, sport, dport uint16, proto uint8, salt uint32) {
		tu := FiveTuple{Src: HostID(src), Dst: HostID(dst), SrcPort: sport, DstPort: dport, Proto: Proto(proto)}
		if got, want := tu.FoldFNV(h), foldRef(h, tu); got != want {
			t.Fatalf("FoldFNV(%#x) of %+v = %#x, byte loop %#x", h, tu, got, want)
		}
		if got, want := FNVWord(h, salt), fnvBytes(h, uint64(salt)); got != want {
			t.Fatalf("FNVWord(%#x, %#x) = %#x, byte loop %#x", h, salt, got, want)
		}
	})
}
