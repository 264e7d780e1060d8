package tcp

import (
	"math/rand"
	"sort"
	"testing"

	"clove/internal/packet"
	"clove/internal/sim"
)

// refReceiver keeps the receiver's original out-of-order rule as a
// reference: append the range, sort by start, merge ranges that overlap or
// touch, and drain by reslicing the front of the buffer.
type refReceiver struct {
	ecn    bool
	rcvNxt int64
	ooo    []interval
	stats  ReceiverStats
}

// handle applies one data segment and returns the cumulative ACK and
// whether it echoes ECN.
func (r *refReceiver) handle(start, end int64, ce bool) (ack int64, ece bool) {
	r.stats.SegmentsReceived++
	if ce {
		r.stats.CESeen++
	}
	switch {
	case end <= r.rcvNxt:
		r.stats.Duplicates++
	case start > r.rcvNxt:
		r.stats.OutOfOrder++
		r.ooo = append(r.ooo, interval{start, end})
		sort.Slice(r.ooo, func(i, j int) bool { return r.ooo[i].start < r.ooo[j].start })
		merged := r.ooo[:1]
		for _, iv := range r.ooo[1:] {
			last := &merged[len(merged)-1]
			if iv.start <= last.end {
				if iv.end > last.end {
					last.end = iv.end
				}
			} else {
				merged = append(merged, iv)
			}
		}
		r.ooo = merged
	default:
		r.stats.BytesDelivered += end - r.rcvNxt
		r.rcvNxt = end
		for len(r.ooo) > 0 && r.ooo[0].start <= r.rcvNxt {
			if r.ooo[0].end > r.rcvNxt {
				r.stats.BytesDelivered += r.ooo[0].end - r.rcvNxt
				r.rcvNxt = r.ooo[0].end
			}
			r.ooo = r.ooo[1:]
		}
	}
	r.stats.AcksSent++
	return r.rcvNxt, ce && r.ecn
}

// TestReceiverReorderMatchesReference feeds the receiver and the reference
// the same random segment streams — windows delivered in random order, with
// duplicates, retransmissions that straddle segment boundaries, and
// zero-length segments — and requires the same delivery point, buffered
// range count, ACK and counters after every segment.
func TestReceiverReorderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		cfg := DefaultConfig()
		cfg.ECN = rng.Intn(2) == 0
		flow := packet.FiveTuple{Src: 1, Dst: 2, SrcPort: 100, DstPort: 200, Proto: packet.ProtoTCP}
		var ack *packet.Packet
		r := NewReceiver(sim.New(1), cfg, flow, func(p *packet.Packet) { ack = p })
		ref := &refReceiver{ecn: cfg.ECN}

		// A stream of segments of random length, then extra ranges that
		// overlap them, then the lot shuffled with some repeated.
		var segs [][2]int64
		var off int64
		for i := 0; i < 1+rng.Intn(40); i++ {
			n := int64(1 + rng.Intn(1500))
			segs = append(segs, [2]int64{off, off + n})
			off += n
		}
		end := off
		for i := rng.Intn(10); i > 0; i-- {
			s := rng.Int63n(off)
			e := s + rng.Int63n(3000)
			segs = append(segs, [2]int64{s, e})
			end = max(end, e)
		}
		for i := rng.Intn(10); i > 0; i-- {
			segs = append(segs, segs[rng.Intn(len(segs))])
		}
		rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })

		for k, sg := range segs {
			ce := rng.Intn(4) == 0
			wantAck, wantECE := ref.handle(sg[0], sg[1], ce)
			r.HandleData(&packet.Packet{Inner: flow, Seq: sg[0], PayloadLen: int(sg[1] - sg[0]), InnerCE: ce})
			if ack == nil || ack.Ack != wantAck || ack.Flags.Has(packet.FlagECE) != wantECE || ack.Inner != flow.Reverse() {
				t.Fatalf("trial %d seg %d [%d,%d): ack %+v, want ack %d ece %v", trial, k, sg[0], sg[1], ack, wantAck, wantECE)
			}
			ack = nil
			if r.RcvNxt() != ref.rcvNxt || r.OOOSegments() != len(ref.ooo) || r.Stats() != ref.stats {
				t.Fatalf("trial %d seg %d [%d,%d): rcvNxt %d ooo %d stats %+v, want %d %d %+v",
					trial, k, sg[0], sg[1], r.RcvNxt(), r.OOOSegments(), r.Stats(), ref.rcvNxt, len(ref.ooo), ref.stats)
			}
		}
		if r.RcvNxt() != end {
			t.Fatalf("trial %d: stream ends at %d, delivered to %d", trial, end, r.RcvNxt())
		}
	}
}

// reorderRig is a pooled receiver whose ACKs go straight back to the pool;
// window delivers the next three segments of the stream in reverse order.
func reorderRig() (r *Receiver, window func()) {
	pool := &packet.Pool{}
	cfg := DefaultConfig()
	cfg.Pool = pool
	flow := packet.FiveTuple{Src: 1, Dst: 2, SrcPort: 100, DstPort: 200, Proto: packet.ProtoTCP}
	r = NewReceiver(sim.New(1), cfg, flow, pool.Put)
	var base int64
	window = func() {
		for i := 2; i >= 0; i-- {
			p := pool.Get()
			p.Kind = packet.KindData
			p.Inner = flow
			p.Seq = base + int64(i)*1460
			p.PayloadLen = 1460
			r.HandleData(p)
		}
		base += 3 * 1460
	}
	return r, window
}

// TestReceiverReorderAllocatesNothing: a window that arrives reversed is
// buffered and drained in place, so once the buffer has its capacity the
// receive path allocates nothing.
func TestReceiverReorderAllocatesNothing(t *testing.T) {
	r, window := reorderRig()
	if allocs := testing.AllocsPerRun(100, window); allocs != 0 {
		t.Fatalf("allocs per reversed 3-segment window = %v, want 0", allocs)
	}
	if r.RcvNxt() != 101*3*1460 || r.OOOSegments() != 0 {
		t.Fatalf("rcvNxt %d, %d ranges buffered", r.RcvNxt(), r.OOOSegments())
	}
}

// BenchmarkHotPathReceiverReorder prices a reversed 3-segment window at the
// receiver (two out-of-order inserts, one drain, three ACKs) and fails on
// any allocation; the CI bench-smoke job runs it.
func BenchmarkHotPathReceiverReorder(b *testing.B) {
	_, window := reorderRig()
	if allocs := testing.AllocsPerRun(50, window); allocs != 0 {
		b.Fatalf("allocs per reversed 3-segment window = %v, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		window()
	}
}
