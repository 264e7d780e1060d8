package wire

import (
	"bytes"
	"testing"
)

// Native Go fuzz target for the one overlay codec whose input arrives off
// the wire. Seeds come from the package's round-trip test vectors; the
// corpus then mutates them into truncated/corrupt frames. The invariants
// under fuzz: Unmarshal never panics, never reports consuming more bytes
// than it was given, and any header it accepts survives a Marshal/Unmarshal
// round trip unchanged.

func FuzzSTTUnmarshal(f *testing.F) {
	// Seeds from TestSttShimFeedbackRoundTrip plus edge shapes.
	full := (&SttShim{
		Version: 1, Flags: ShimFlagINTRequest, FlowletID: 99, VNI: 0xabcdef,
		Feedback: Feedback{Valid: true, Port: 54321, ECN: true, HasUtil: true, Util: 0.73},
		PathPort: 40001, PayloadLen: 1460,
	}).Marshal(nil)
	bare := (&SttShim{VNI: 7}).Marshal(nil)
	f.Add(full)
	f.Add(bare)
	f.Add(full[:SttShimLen-1])
	f.Add(bytes.Repeat([]byte{0xff}, SttShimLen))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		var s SttShim
		n, err := s.Unmarshal(b)
		if err != nil {
			return
		}
		if n != SttShimLen {
			t.Fatalf("consumed %d bytes, want %d", n, SttShimLen)
		}
		if s.VNI > 0xffffff {
			t.Fatalf("VNI %#x exceeds 24 bits", s.VNI)
		}
		if s.Feedback.HasUtil && (s.Feedback.Util < 0 || s.Feedback.Util > 1) {
			t.Fatalf("utilization %v outside [0,1]", s.Feedback.Util)
		}
		re := s.Marshal(nil)
		var again SttShim
		if _, err := again.Unmarshal(re); err != nil {
			t.Fatalf("remarshal of accepted shim rejected: %v", err)
		}
		if again != s {
			t.Fatalf("round trip mismatch:\n%+v\n%+v", s, again)
		}
	})
}
