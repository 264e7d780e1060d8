package vswitch

import (
	"testing"

	"clove/internal/clove"
	"clove/internal/packet"
	"clove/internal/sim"
)

// TestECNRelayedToVMWhenAllPathsCongested exercises the escape hatch of
// Sec. 3.2: when every discovered path toward a peer is congested, the
// source vswitch stops masking and sets ECE on inner ACKs so the sending
// VM throttles.
func TestECNRelayedToVMWhenAllPathsCongested(t *testing.T) {
	mk := func(int) PathPolicy {
		return NewCloveECN(clove.DefaultWeightTableConfig(100 * sim.Microsecond))
	}
	r := newRig(t, 31, mk, nil)
	v := r.vsw[0]
	pol := v.Policy().(*CloveECN)
	ports := []uint16{50001, 50002}
	pol.SetPaths(16, ports)

	// Mark every path toward host 16 as congested via direct feedback.
	// (Advance the clock first: time zero is the "never congested"
	// sentinel in the weight table.)
	r.s.RunUntil(sim.Millisecond)
	now := r.s.Now()
	for _, p := range ports {
		pol.OnFeedback(16, packet.Feedback{Valid: true, Port: p, ECN: true}, now)
	}
	if !pol.AllCongested(16, now+1) {
		t.Fatal("paths not all congested after feedback")
	}

	// Deliver an inner ACK from host 16; the vswitch must stamp ECE.
	var got *packet.Packet
	ackTuple := packet.FiveTuple{Src: 16, Dst: 0, SrcPort: 2000, DstPort: 1000, Proto: packet.ProtoTCP}
	h, _ := r.flows.Open(func(_ any, p *packet.Packet) { got = p }, nil, release, r.ls.Pool())
	ack := &packet.Packet{
		Kind:  packet.KindData,
		Inner: ackTuple,
		Flow:  h,
		Flags: packet.FlagACK,
		Encap: &packet.Encap{SrcHyp: 16, DstHyp: 0, SrcPort: 60000, DstPort: 7471},
	}
	v.FromNetwork(ack)
	if got == nil {
		t.Fatal("ACK not delivered")
	}
	if !got.Flags.Has(packet.FlagECE) {
		t.Error("ECE not relayed to VM despite all paths congested")
	}
	if v.Stats().ECNRelayedToVM != 1 {
		t.Errorf("relay counter = %d", v.Stats().ECNRelayedToVM)
	}

	// Once congestion ages out, ACKs pass clean again.
	r.s.RunUntil(r.s.Now() + sim.Second)
	got = nil
	ack2 := &packet.Packet{
		Kind:  packet.KindData,
		Inner: ackTuple,
		Flow:  h,
		Flags: packet.FlagACK,
		Encap: &packet.Encap{SrcHyp: 16, DstHyp: 0, SrcPort: 60000, DstPort: 7471},
	}
	v.FromNetwork(ack2)
	if got == nil || got.Flags.Has(packet.FlagECE) {
		t.Error("ECE still set after congestion aged out")
	}
}

// TestDataPacketsNeverGetECEStamp verifies the relay touches only pure
// ACKs: data segments to the receiver VM must stay unmodified.
func TestDataPacketsNeverGetECEStamp(t *testing.T) {
	mk := func(int) PathPolicy {
		return NewCloveECN(clove.DefaultWeightTableConfig(100 * sim.Microsecond))
	}
	r := newRig(t, 32, mk, nil)
	v := r.vsw[0]
	pol := v.Policy().(*CloveECN)
	pol.SetPaths(16, []uint16{50001})
	pol.OnFeedback(16, packet.Feedback{Valid: true, Port: 50001, ECN: true}, r.s.Now())

	var got *packet.Packet
	dataTuple := packet.FiveTuple{Src: 16, Dst: 0, SrcPort: 7, DstPort: 8, Proto: packet.ProtoTCP}
	h, _ := r.flows.Open(func(_ any, p *packet.Packet) { got = p }, nil, release, r.ls.Pool())
	v.FromNetwork(&packet.Packet{
		Kind: packet.KindData, Inner: dataTuple, Flow: h, Flags: packet.FlagACK, PayloadLen: 100,
		Encap: &packet.Encap{SrcHyp: 16, DstHyp: 0, SrcPort: 60000, DstPort: 7471},
	})
	if got == nil {
		t.Fatal("not delivered")
	}
	if got.Flags.Has(packet.FlagECE) {
		t.Error("data segment stamped with ECE")
	}
}

// TestLatencyMeasurementReflected checks the Sec. 7 latency variant at the
// vswitch level: a stamped packet's one-way delay lands in the receiver's
// observation table and is relayed back.
func TestLatencyMeasurementReflected(t *testing.T) {
	var vsws []*VSwitch
	mkPol := func(i int) PathPolicy {
		return NewCloveINT(clove.DefaultWeightTableConfig(100*sim.Microsecond), func() sim.Time {
			return vsws[i].sim.Now()
		})
	}
	r := newRig(t, 33, mkPol, func(c *Config) { c.MeasureLatency = true })
	vsws = r.vsw
	pol := r.vsw[0].Policy().(*CloveINT)
	pol.SetPaths(16, r.fourPorts(t, 0, 16))

	snd, _ := r.conn(0, 16, 1000, 2000)
	snd.StartJob(500_000, nil)
	r.s.RunUntil(2 * sim.Second)

	table := pol.Table(16)
	found := false
	for _, st := range table.States() {
		if st.UtilAt > 0 {
			found = true
			// The reflected metric is a one-way delay in seconds on a
			// 100 Mbps-scaled fabric: between 10us and 1s.
			if st.Util <= 1e-5 || st.Util > 1 {
				t.Errorf("reflected delay out of range: %v", st.Util)
			}
		}
	}
	if !found {
		t.Error("no latency reflections recorded")
	}
}
