package packet

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFiveTupleReverse(t *testing.T) {
	ft := FiveTuple{Src: 1, Dst: 2, SrcPort: 100, DstPort: 200, Proto: ProtoTCP}
	r := ft.Reverse()
	if r.Src != 2 || r.Dst != 1 || r.SrcPort != 200 || r.DstPort != 100 {
		t.Errorf("Reverse = %+v", r)
	}
	if r.Reverse() != ft {
		t.Error("double Reverse is not identity")
	}
}

func TestFlagsHas(t *testing.T) {
	f := FlagSYN | FlagACK
	if !f.Has(FlagSYN) || !f.Has(FlagACK) || !f.Has(FlagSYN|FlagACK) {
		t.Error("Has missed set bits")
	}
	if f.Has(FlagFIN) || f.Has(FlagSYN|FlagFIN) {
		t.Error("Has reported unset bits")
	}
}

func TestSize(t *testing.T) {
	p := &Packet{Kind: KindData, PayloadLen: 1000}
	if got := p.Size(); got != InnerHeaderLen+1000 {
		t.Errorf("bare data size = %d", got)
	}
	p.Encap = &Encap{}
	if got := p.Size(); got != InnerHeaderLen+1000+EncapHeaderLen {
		t.Errorf("encapped data size = %d", got)
	}
	probe := &Packet{Kind: KindProbe}
	if got := probe.Size(); got != ProbePacketLen+EncapHeaderLen {
		t.Errorf("probe size = %d", got)
	}
}

func TestOuterTuple(t *testing.T) {
	p := &Packet{Inner: FiveTuple{Src: 1, Dst: 2, SrcPort: 5, DstPort: 6, Proto: ProtoTCP}}
	if p.OuterTuple() != p.Inner {
		t.Error("bare packet outer tuple should be inner tuple")
	}
	if p.OuterDst() != 2 {
		t.Error("bare OuterDst")
	}
	p.Encap = &Encap{SrcHyp: 10, DstHyp: 20, SrcPort: 50000, DstPort: 7471}
	ot := p.OuterTuple()
	if ot.Src != 10 || ot.Dst != 20 || ot.SrcPort != 50000 || ot.DstPort != 7471 {
		t.Errorf("encap outer tuple = %+v", ot)
	}
	if p.OuterDst() != 20 {
		t.Error("encap OuterDst")
	}
}

func TestMarkCE(t *testing.T) {
	// Encapsulated, outer ECT: marks the outer header only.
	p := &Packet{Encap: &Encap{ECT: true}, InnerECT: true}
	if !p.MarkCE() {
		t.Fatal("ECT outer not markable")
	}
	if !p.Encap.CE || p.InnerCE {
		t.Error("mark should hit outer header only")
	}
	if !p.CEMarked() {
		t.Error("CEMarked false after mark")
	}

	// Encapsulated, outer not ECT: unmarkable even if inner is ECT.
	p = &Packet{Encap: &Encap{ECT: false}, InnerECT: true}
	if p.MarkCE() {
		t.Error("non-ECT outer was marked")
	}
	if p.CEMarked() {
		t.Error("CEMarked true without mark")
	}

	// Bare packet, inner ECT.
	p = &Packet{InnerECT: true}
	if !p.MarkCE() || !p.InnerCE || !p.CEMarked() {
		t.Error("bare ECT packet marking failed")
	}

	// Bare packet, not ECT.
	p = &Packet{}
	if p.MarkCE() {
		t.Error("non-ECT bare packet was marked")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := &Packet{
		Kind:  KindData,
		Inner: FiveTuple{Src: 1, Dst: 2},
		Encap: &Encap{SrcPort: 1111, Feedback: Feedback{Valid: true, Port: 9}},
		Conga: &Conga{LBTag: 3, CEMetric: 0.5},
	}
	q := p.Clone()
	q.Encap.SrcPort = 2222
	q.Conga.CEMetric = 0.9
	if p.Encap.SrcPort != 1111 || p.Conga.CEMetric != 0.5 {
		t.Error("Clone shares state with original")
	}
	if q.Encap.Feedback.Port != 9 {
		t.Error("Clone lost feedback")
	}
}

func TestCloneNilOptionals(t *testing.T) {
	p := &Packet{Kind: KindData}
	q := p.Clone()
	if q.Encap != nil || q.Conga != nil {
		t.Error("Clone invented optional fields")
	}
}

func TestStringCoverage(t *testing.T) {
	for _, p := range []*Packet{
		{Kind: KindData, Inner: FiveTuple{Src: 1, Dst: 2}},
		{Kind: KindProbe, ProbeID: 7, ProbePort: 100, TTL: 3},
		{Kind: KindProbeEcho, ProbeID: 7, HopIndex: 2, EchoNode: 5},
		{Kind: KindFeedback, Encap: &Encap{SrcHyp: 1, DstHyp: 2}},
		{Kind: KindFeedback},
	} {
		if p.String() == "" {
			t.Errorf("empty String for kind %d", p.Kind)
		}
	}
}

// Property: reversing a five-tuple twice is the identity.
func TestQuickReverseInvolution(t *testing.T) {
	f := func(src, dst int32, sp, dp uint16, proto uint8) bool {
		ft := FiveTuple{Src: HostID(src), Dst: HostID(dst), SrcPort: sp, DstPort: dp, Proto: Proto(proto)}
		return ft.Reverse().Reverse() == ft
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

// Property: Clone never aliases Encap/Conga, and Size is invariant under
// Clone.
func TestQuickCloneIndependence(t *testing.T) {
	f := func(payload uint16, srcPort uint16, hasEncap bool) bool {
		p := &Packet{Kind: KindData, PayloadLen: int(payload % 1460)}
		if hasEncap {
			p.Encap = &Encap{SrcPort: srcPort, ECT: true}
		}
		q := p.Clone()
		if q.Size() != p.Size() {
			return false
		}
		if hasEncap {
			q.Encap.CE = true
			if p.Encap.CE {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

// A packet's headers are stored in the packet and die with it: what Put
// recycles has no header attached and zeroed header storage, so nothing a
// previous life wrote can reach the next one.
func TestRecycledPacketHasNoHeaders(t *testing.T) {
	var pool Pool
	p := pool.Get()
	e := p.AddEncap()
	e.SrcPort, e.CE, e.Feedback = 50000, true, Feedback{Valid: true, Port: 9, ECN: true}
	c := p.AddConga()
	c.LBTag, c.FbValid, c.FbMetric = 3, true, 0.7
	pool.Put(p)

	q := pool.Get()
	if q != p {
		t.Fatal("pool did not recycle the released packet")
	}
	if q.Encap != nil || q.Conga != nil {
		t.Errorf("recycled packet carries headers: Encap=%v Conga=%v", q.Encap, q.Conga)
	}
	if q.encap != (Encap{}) || q.conga != (Conga{}) {
		t.Errorf("recycled packet's header storage not zeroed: %+v %+v", q.encap, q.conga)
	}
	if pool.Gets() != 2 || pool.Puts() != 1 {
		t.Errorf("gets/puts = %d/%d, want 2/1", pool.Gets(), pool.Puts())
	}
}

// Clone of a packet encapsulated in place re-aims the clone's header
// pointers at the clone's own storage, so the two mutate independently.
func TestCloneOfEncapsulatedPacketIsIndependent(t *testing.T) {
	p := &Packet{Kind: KindData, PayloadLen: 100}
	p.AddEncap().SrcPort = 1111
	p.AddConga().LBTag = 3
	q := p.Clone()
	if q.Encap != &q.encap || q.Conga != &q.conga {
		t.Fatal("clone's headers do not live in the clone")
	}
	if q.Encap.SrcPort != 1111 || q.Conga.LBTag != 3 {
		t.Fatalf("clone lost header contents: %+v %+v", q.Encap, q.Conga)
	}
	q.Encap.SrcPort, q.Encap.CE, q.Conga.LBTag = 2222, true, 4
	p.Encap.DstPort = 7471
	if p.Encap.SrcPort != 1111 || p.Encap.CE || p.Conga.LBTag != 3 {
		t.Errorf("mutating the clone changed its source: %+v %+v", p.Encap, p.Conga)
	}
	if q.Encap.DstPort != 0 {
		t.Errorf("mutating the source changed its clone: %+v", q.Encap)
	}
}

// Decapsulation is `pkt.Encap = nil`; the next AddEncap must not show the
// old header through.
func TestAddEncapAfterDecapIsZeroed(t *testing.T) {
	p := &Packet{Kind: KindData}
	e := p.AddEncap()
	e.SrcHyp, e.SrcPort, e.ECT, e.CE = 4, 50000, true, true
	e.Feedback = Feedback{Valid: true, Port: 9, HasUtil: true, Util: 0.5}
	p.Encap = nil
	if n := p.Size(); n != InnerHeaderLen {
		t.Errorf("decapsulated size = %d, want %d", n, InnerHeaderLen)
	}
	if got := p.AddEncap(); *got != (Encap{}) || p.Encap != got {
		t.Errorf("AddEncap after decap = %+v (attached=%v), want a zeroed attached header", *got, p.Encap == got)
	}
	c := p.AddConga()
	c.FbValid = true
	p.Conga = nil
	if got := p.AddConga(); *got != (Conga{}) {
		t.Errorf("AddConga after detach = %+v, want zero", *got)
	}
}
