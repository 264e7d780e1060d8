package wire

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func TestSttShimFeedbackRoundTrip(t *testing.T) {
	s := SttShim{
		Version: 1, Flags: ShimFlagINTRequest, FlowletID: 99, VNI: 0xabcdef,
		Feedback: Feedback{Valid: true, Port: 54321, ECN: true, HasUtil: true, Util: 0.73},
	}
	b := s.Marshal(nil)
	var g SttShim
	if _, err := g.Unmarshal(b); err != nil {
		t.Fatal(err)
	}
	if !g.Feedback.Valid || g.Feedback.Port != 54321 || !g.Feedback.ECN || !g.Feedback.HasUtil {
		t.Errorf("feedback lost: %+v", g.Feedback)
	}
	if math.Abs(g.Feedback.Util-0.73) > 1.0/255 {
		t.Errorf("util quantization too lossy: %v", g.Feedback.Util)
	}
	if g.Flags&ShimFlagINTRequest == 0 {
		t.Error("INT request flag lost")
	}
	if g.VNI != 0xabcdef || g.FlowletID != 99 {
		t.Errorf("fields lost: %+v", g)
	}
}

func TestSttShimNoFeedback(t *testing.T) {
	s := SttShim{Version: 1, VNI: 5}
	b := s.Marshal(nil)
	var g SttShim
	if _, err := g.Unmarshal(b); err != nil {
		t.Fatal(err)
	}
	if g.Feedback.Valid {
		t.Error("phantom feedback")
	}
}

func TestSttShimPutMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		s := SttShim{
			Version:    uint8(rng.Intn(4)),
			Flags:      uint8(rng.Intn(256)) &^ (ShimFlagECNFeedback | ShimFlagUtilValid),
			FlowletID:  rng.Uint32(),
			VNI:        rng.Uint32() & 0xffffff,
			PayloadLen: uint16(rng.Intn(1 << 16)),
			PathPort:   uint16(rng.Intn(1 << 16)),
		}
		if rng.Intn(2) == 0 {
			s.Feedback = Feedback{
				Valid: true, Port: uint16(rng.Intn(1 << 16)), ECN: rng.Intn(2) == 0,
				HasUtil: rng.Intn(2) == 0, Util: rng.Float64(),
			}
		}
		want := s.Marshal(nil)
		// Put into a dirty buffer: every byte must be overwritten.
		got := bytes.Repeat([]byte{0xa5}, SttShimLen)
		if n := s.Put(got); n != SttShimLen {
			t.Fatalf("Put returned %d", n)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Put differs from Marshal:\n%x\n%x\nshim %+v", got, want, s)
		}
	}
}

func TestSttShimPutZeroAlloc(t *testing.T) {
	s := SttShim{
		Version: 1, FlowletID: 7, VNI: 9, PayloadLen: 1200, PathPort: 40001,
		Feedback: Feedback{Valid: true, Port: 40002, ECN: true, HasUtil: true, Util: 0.5},
	}
	buf := make([]byte, SttShimLen)
	if n := testing.AllocsPerRun(1000, func() { s.Put(buf) }); n != 0 {
		t.Errorf("Put allocates %v per run, contract is 0", n)
	}
	var g SttShim
	if n := testing.AllocsPerRun(1000, func() { g.Unmarshal(buf) }); n != 0 {
		t.Errorf("Unmarshal allocates %v per run, contract is 0", n)
	}
}
