package netem

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"clove/internal/oracle"
	"clove/internal/packet"
	"clove/internal/sim"
)

// seqSink is a terminal Node that records each delivered packet's Seq and CE
// mark, then releases the packet to its pool.
type seqSink struct {
	pool   *packet.Pool
	got    []int64
	marked []bool
}

func (c *seqSink) ID() packet.NodeID { return 99 }
func (c *seqSink) Receive(p *packet.Packet, _ *Link) {
	c.got = append(c.got, p.Seq)
	c.marked = append(c.marked, p.CEMarked())
	c.pool.Put(p)
}

// refLink is the reference model of a Link with zero propagation delay: a
// plain-slice FIFO with the same admission, marking, serialization and
// link-state rules, advanced by explicit time instead of events.
type refLink struct {
	cap, ecnK int
	txTime    sim.Time
	size      int64
	up, busy  bool
	q         []int64 // queued Seqs, oldest first
	ce        map[int64]bool
	sending   int64
	doneAt    sim.Time
	delivered []int64
	stats     LinkStats
}

func (r *refLink) start(now sim.Time) {
	if len(r.q) == 0 || !r.up {
		r.busy = false
		return
	}
	r.sending, r.q = r.q[0], r.q[1:]
	r.busy = true
	r.doneAt = now + r.txTime
	r.stats.TxPackets++
	r.stats.TxBytes += r.size
}

// advance completes every transmission that ends at or before now: the
// serializing packet is delivered if the link is up when it finishes.
func (r *refLink) advance(now sim.Time) {
	for r.busy && r.doneAt <= now {
		if r.up {
			r.delivered = append(r.delivered, r.sending)
		} else {
			r.stats.DownDrops++
		}
		r.start(r.doneAt)
	}
}

func (r *refLink) enqueue(seq int64, ect bool, now sim.Time) {
	switch {
	case !r.up:
		r.stats.DownDrops++
	case len(r.q) >= r.cap:
		r.stats.Drops++
	default:
		if r.ecnK > 0 && len(r.q) >= r.ecnK && ect {
			r.stats.ECNMarks++
			r.ce[seq] = true
		}
		r.q = append(r.q, seq)
		if !r.busy {
			r.start(now)
		}
	}
}

func (r *refLink) setUp(up bool) {
	if r.up == up {
		return
	}
	r.up = up
	if !up {
		r.stats.DownDrops += int64(len(r.q))
		r.q = r.q[:0]
	}
}

// TestLinkQueueMatchesReference drives random schedules — bursts larger than
// the queue, idle gaps from none to a full drain, and SetUp(false) /
// SetUp(true) in the middle of a burst — through a Link under the oracle and
// through refLink, and requires the same delivery order, the same CE marks,
// the same occupancy after every burst and the same counters.
func TestLinkQueueMatchesReference(t *testing.T) {
	const payload = 71 // 125 B on the wire: 1 µs at 1 Gb/s
	for _, queueCap := range []int{1, 2, 8, 9, 256, 1024} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("cap%d/seed%d", queueCap, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*1000 + int64(queueCap)))
				s := sim.New(1)
				pool := &packet.Pool{}
				o := oracle.New()
				pool.SetObserver(o)
				s.SetEventHook(o.AfterEvent)
				sink := &seqSink{pool: pool}
				ecnK := rng.Intn(queueCap + 1) // 0 disables marking
				l := newLink(s, pool, 0, "t", 1, sink, LinkConfig{RateBps: 1e9, QueueCap: queueCap, ECNK: ecnK})
				size := packet.InnerHeaderLen + payload
				ref := &refLink{
					cap: queueCap, ecnK: ecnK, up: true,
					txTime: sim.TransmissionTime(size, 1e9), size: int64(size),
					ce: map[int64]bool{},
				}

				up := true
				var now sim.Time
				var seq int64
				for burst := 0; burst < 40; burst++ {
					now += sim.Time(rng.Int63n(int64(queueCap+4) * int64(ref.txTime)))
					s.RunUntil(now)
					ref.advance(now)
					// The largest burst doubles every four bursts, so the ring
					// wraps at every size it passes through on the way to its cap.
					n := 1 + rng.Intn(min(2*queueCap+8, 4<<(burst/4)))
					flip := -1
					if rng.Intn(3) == 0 {
						flip = rng.Intn(n)
					}
					for i := 0; i < n; i++ {
						if i == flip {
							up = !up
							l.SetUp(up)
							ref.setUp(up)
						}
						seq++
						ect := rng.Intn(4) != 0
						pkt := pool.Get()
						pkt.Kind = packet.KindData
						pkt.Inner = packet.FiveTuple{Src: 0, Dst: 1, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
						pkt.PayloadLen = payload
						pkt.Seq = seq
						pkt.InnerECT = ect
						l.Enqueue(pkt)
						ref.enqueue(seq, ect, now)
					}
					if got, want := l.QueueLen(), len(ref.q); got != want {
						t.Fatalf("burst %d at %v: QueueLen %d, reference %d", burst, now, got, want)
					}
					if len(l.queue) > queueCap {
						t.Fatalf("burst %d: ring of %d slots exceeds the %d-packet cap", burst, len(l.queue), queueCap)
					}
				}
				s.Run()
				ref.advance(sim.Time(1) << 62)

				if len(sink.got) != len(ref.delivered) {
					t.Fatalf("delivered %d packets, reference %d", len(sink.got), len(ref.delivered))
				}
				for i, sq := range sink.got {
					if sq != ref.delivered[i] {
						t.Fatalf("delivery %d: Seq %d, reference %d", i, sq, ref.delivered[i])
					}
					if sink.marked[i] != ref.ce[sq] {
						t.Fatalf("delivery %d (Seq %d): CE %v, reference %v", i, sq, sink.marked[i], ref.ce[sq])
					}
				}
				if got := l.Stats(); got != ref.stats {
					t.Errorf("stats %+v, reference %+v", got, ref.stats)
				}
				if err := o.Check(s.Pending()); err != nil {
					t.Error(err)
				}
				if pool.Gets() != pool.Puts() {
					t.Errorf("pool: %d gets, %d puts", pool.Gets(), pool.Puts())
				}
			})
		}
	}
}

// TestLeafSpineHeapIndependentOfQueueCap pins the point of growing link
// rings on demand: building a fabric with 4,096-packet switch queues costs
// the same heap as building it with 64-packet ones, instead of 8 B per
// configured slot on every link.
func TestLeafSpineHeapIndependentOfQueueCap(t *testing.T) {
	build := func(queueCap int) (uint64, int) {
		cfg := ScaledTestbed(0.1, 4)
		cfg.QueueCap = queueCap
		best := ^uint64(0)
		var links int
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ls := BuildLeafSpine(sim.New(1), cfg)
			runtime.ReadMemStats(&after)
			links = len(ls.Links())
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best, links
	}
	small, links := build(64)
	large, _ := build(4096)
	if diff := int64(large) - int64(small); diff >= int64(links)<<10 {
		t.Errorf("4,096-packet queues cost %d B more heap than 64-packet ones over %d links, want < 1 KiB per link", diff, links)
	}
}

// BenchmarkLinkQueueBurst pushes a 1,024-packet burst into a host uplink
// (HostQdiscCap deep) and drains it through the fabric. Once one burst has
// grown the ring to its peak occupancy, a burst allocates nothing; the CI
// bench-smoke job runs it.
func BenchmarkLinkQueueBurst(b *testing.B) {
	s, topo, src, dst := hotPathFabric()
	burst := func() {
		for i := 0; i < HostQdiscCap; i++ {
			pkt := topo.Pool().Get()
			pkt.Kind = packet.KindData
			pkt.Inner = packet.FiveTuple{Src: 0, Dst: 1, SrcPort: 40000, DstPort: 80, Proto: packet.ProtoTCP}
			pkt.PayloadLen = 1460
			src.Send(pkt)
		}
		s.Run()
	}
	burst()
	if allocs := testing.AllocsPerRun(5, burst); allocs != 0 {
		b.Fatalf("allocs per %d-packet burst = %v, want 0", HostQdiscCap, allocs)
	}
	if st := src.uplink.Stats(); st.Drops != 0 || dst.RxPackets() != st.TxPackets {
		b.Fatalf("uplink dropped %d, sink received %d of %d", st.Drops, dst.RxPackets(), st.TxPackets)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		burst()
	}
}
