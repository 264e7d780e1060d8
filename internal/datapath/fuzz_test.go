package datapath

import (
	"testing"
	"time"

	"clove/internal/clove"
	"clove/internal/wire"
)

// fuzzDatagrams packs frames into FuzzHandleFrame's input: each datagram is
// a length byte and the frame.
func fuzzDatagrams(frames ...[]byte) []byte {
	var out []byte
	for _, f := range frames {
		out = append(out, byte(len(f)))
		out = append(out, f...)
	}
	return out
}

// fuzzFrame encodes a frame from the peer's path port with payload, shim
// flags and feedback, CE-marked if ce.
func fuzzFrame(port uint16, payload []byte, flags uint8, fb wire.Feedback, ce bool) []byte {
	b := make([]byte, headerLen+len(payload))
	encodeFrame(b, port, 7, fb, payload, flags)
	if ce {
		b[0] |= fabricCE
	}
	return b
}

// FuzzHandleFrame feeds a sequence of whole datagrams into an endpoint that
// was never started. No datagram may panic it, and afterwards the relay
// record must yield exactly one CE relay for each port that some
// well-formed, non-probe, CE-marked datagram carried, and nothing else.
func FuzzHandleFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(fuzzDatagrams(fuzzFrame(40001, []byte("data"), 0, wire.Feedback{}, false)))
	f.Add(fuzzDatagrams(
		fuzzFrame(40001, nil, shimFlagBare, wire.Feedback{}, true),
		fuzzFrame(0, []byte("x"), 0, wire.Feedback{Valid: true, Port: 40002, ECN: true, HasUtil: true, Util: 0.5}, true),
		fuzzFrame(40003, nil, shimFlagProbe, wire.Feedback{}, true),
		fuzzFrame(40004, nil, shimFlagProbeEcho, wire.Feedback{Valid: true, Port: 1}, true),
		fuzzFrame(40005, []byte("short"), 0, wire.Feedback{}, true)[:headerLen+2],
	))
	f.Add([]byte{3, 0xff, 0xff, 0xff, 200, 9, 9})

	cfg := DefaultConfig()
	cfg.Paths = 2
	e, err := NewEndpoint("127.0.0.1", cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { e.Close() })

	f.Fuzz(func(t *testing.T, data []byte) {
		e.mu.Lock()
		e.peer = clove.PeerPaths{}
		e.mu.Unlock()
		marked := map[uint16]bool{}
		for i := 0; len(data) >= 1; i++ {
			n := min(int(data[0]), len(data)-1)
			frame := data[1 : 1+n]
			data = data[1+n:]
			if port, ok := markedPort(frame); ok {
				marked[port] = true
			}
			e.handleFrame(e.shards[i%len(e.shards)], frame)
		}
		// Far past any relay: every marked path is due once.
		at := time.Since(e.start) + time.Hour
		relayed := map[uint16]bool{}
		for fb := takeAt(e, at); fb.Valid; fb = takeAt(e, at) {
			if !marked[fb.Port] || !fb.ECN || fb.HasUtil || relayed[fb.Port] {
				t.Fatalf("relayed %+v; marked ports %v, already relayed %v", fb, marked, relayed)
			}
			relayed[fb.Port] = true
		}
		if len(relayed) != len(marked) {
			t.Fatalf("relayed ports %v, want every marked port %v", relayed, marked)
		}
	})
}

// markedPort is the reference parse: it reports the peer path port a
// datagram attributes a CE mark to (the shim's PathPort, 0 included), if the
// datagram is well formed, not a probe or probe echo, and CE-marked.
func markedPort(b []byte) (uint16, bool) {
	if len(b) < headerLen || b[0]&fabricCE == 0 {
		return 0, false
	}
	var shim wire.SttShim
	if _, err := shim.Unmarshal(b[1:]); err != nil || shim.Version != shimVersion ||
		int(shim.PayloadLen) != len(b)-headerLen || shim.Flags&(shimFlagProbe|shimFlagProbeEcho) != 0 {
		return 0, false
	}
	return shim.PathPort, true
}
