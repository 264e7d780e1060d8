package netem

import (
	"testing"

	"clove/internal/packet"
	"clove/internal/sim"
)

// encapFull and encapACK are the wire sizes of an encapsulated full segment
// and bare ACK: the sizes whose serializations wait in lanes.
const (
	encapFull = fullFrame + packet.EncapHeaderLen
	encapACK  = ackFrame + packet.EncapHeaderLen
)

// sizedPacket returns a data packet of size bytes on the wire, with the
// overlay header when encap is set.
func sizedPacket(size int, encap bool) *packet.Packet {
	p := dataPacket(0, 1, size-packet.InnerHeaderLen)
	if encap {
		p.Encap = &packet.Encap{}
		p.PayloadLen -= packet.EncapHeaderLen
	}
	return p
}

// TestLinkCommonSizesSerializeInLanes checks that an encapsulated full
// segment and bare ACK complete serialization from the simulator's lane for
// their transmission time at the link's rate, that a probe and a short
// segment complete from the heap, and that either way the packet lands after
// its transmission time plus the delay.
func TestLinkCommonSizesSerializeInLanes(t *testing.T) {
	const rate = 10e9
	probe := &packet.Packet{Kind: packet.KindProbe, Inner: packet.FiveTuple{Src: 0, Dst: 1}}
	for _, tc := range []struct {
		name   string
		pkt    *packet.Packet
		inLane bool
	}{
		{"encapsulated full segment", sizedPacket(encapFull, true), true},
		{"encapsulated bare ACK", sizedPacket(encapACK, true), true},
		{"short segment", sizedPacket(700+packet.EncapHeaderLen, true), false},
		{"probe", probe, false},
	} {
		s := sim.New(1)
		c := &collector{id: 99, s: s}
		l := newLink(s, nil, 0, nil, c, LinkConfig{RateBps: rate, Delay: sim.Microsecond})
		size := tc.pkt.Size()
		tx := sim.TransmissionTime(size, rate)
		if got := l.txLane(size); (got != nil) != tc.inLane || (got != nil && got != sim.LaneFor(s, tx, linkTxDone)) {
			t.Errorf("%s (%d B): serialization lane %p, want one (%v) for %v", tc.name, size, got, tc.inLane, tx)
		}
		l.Enqueue(tc.pkt)
		s.Run()
		if want := tx + sim.Microsecond; len(c.at) != 1 || c.at[0] != want {
			t.Errorf("%s (%d B): landed at %v, want [%v]", tc.name, size, c.at, want)
		}
	}
}

// TestLinkMixedSizesKeepFireOrder sends a burst of packets over one link,
// alternating sizes whose completions wait in lanes with sizes whose
// completions wait in the heap, and checks each packet's arrival against the
// serializer's arithmetic: a lane completion fires exactly when, and in the
// order, a heap one would.
func TestLinkMixedSizesKeepFireOrder(t *testing.T) {
	s := sim.New(1)
	c := &collector{id: 99, s: s}
	const rate = 10e9
	l := newLink(s, nil, 0, nil, c, LinkConfig{RateBps: rate, Delay: 3 * sim.Microsecond})
	sizes := []int{encapFull, 700, encapACK, encapFull, 200, encapACK, fullFrame, 61}
	var want []sim.Time
	var tx sim.Time
	for i, size := range sizes {
		p := sizedPacket(size, size == encapFull || size == encapACK)
		p.Seq = int64(i)
		l.Enqueue(p)
		tx += sim.TransmissionTime(size, rate)
		want = append(want, tx+3*sim.Microsecond)
	}
	s.Run()
	if len(c.got) != len(sizes) {
		t.Fatalf("delivered %d of %d", len(c.got), len(sizes))
	}
	for i, p := range c.got {
		if p.Seq != int64(i) || c.at[i] != want[i] {
			t.Errorf("arrival %d: packet %d at %v, want packet %d at %v", i, p.Seq, c.at[i], i, want[i])
		}
	}
}

// TestLinkSetRateMovesSerializationLanes checks that after SetRateBps the
// link's serializations wait in the new rate's lanes while the completion
// already pending keeps the time the old rate gave it.
func TestLinkSetRateMovesSerializationLanes(t *testing.T) {
	s := sim.New(1)
	c := &collector{id: 99, s: s}
	l := newLink(s, nil, 0, nil, c, LinkConfig{RateBps: 40e9})
	l.Enqueue(sizedPacket(encapFull, true))
	l.Enqueue(sizedPacket(encapFull, true))
	l.SetRateBps(10e9)
	for _, size := range txSizes {
		if want := sim.LaneFor(s, sim.TransmissionTime(size, 10e9), linkTxDone); l.txLane(size) != want {
			t.Errorf("%d B: serialization lane is not the 10 Gb/s one", size)
		}
	}
	old, slow := sim.TransmissionTime(encapFull, 40e9), sim.TransmissionTime(encapFull, 10e9)
	s.Run()
	want := []sim.Time{old, old + slow}
	if len(c.at) != 2 || c.at[0] != want[0] || c.at[1] != want[1] {
		t.Errorf("landed at %v, want %v", c.at, want)
	}
}

// TestLinkRateSweepStopsAtLaneCap changes a link's rate to many distinct
// values: the simulator's lanes stop at sim.MaxLanes, and a completion whose
// delay found no lane waits in the heap and lands on time.
func TestLinkRateSweepStopsAtLaneCap(t *testing.T) {
	s := sim.New(1)
	c := &collector{id: 99, s: s}
	l := newLink(s, nil, 0, nil, c, LinkConfig{RateBps: 10e9, Delay: sim.Microsecond})
	lanes := map[*sim.Lane[Link, packet.Packet]]bool{l.lane: true}
	for i := 0; i <= 100; i++ {
		for _, ln := range l.txLanes {
			if ln != nil {
				lanes[ln] = true
			}
		}
		l.SetRateBps(int64(1e9 + 7e6*i))
	}
	if len(lanes) != sim.MaxLanes {
		t.Errorf("links use %d lanes, want sim.MaxLanes = %d", len(lanes), sim.MaxLanes)
	}
	if sim.LaneFor(s, 12345, linkTxDone) != nil {
		t.Error("a new delay got a lane past the cap")
	}
	rate := l.RateBps()
	if l.txLane(encapFull) != nil {
		t.Fatalf("the last rate's full-segment lane exists past the cap")
	}
	l.Enqueue(sizedPacket(encapFull, true))
	s.Run()
	if want := sim.TransmissionTime(encapFull, rate) + sim.Microsecond; len(c.at) != 1 || c.at[0] != want {
		t.Errorf("landed at %v, want [%v]", c.at, want)
	}
}
