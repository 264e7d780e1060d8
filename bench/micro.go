package main

import (
	"time"

	"clove/internal/clove"
	"clove/internal/netem"
	"clove/internal/packet"
	"clove/internal/sim"
	"clove/internal/tcp"
	"clove/internal/wire"
)

// Micro-drivers time one layer's exported functions from outside. Each is a
// few milliseconds of calls in a tight loop, repeated, and reports the
// median ns per operation; none is a workload, they only price the counts
// the traced pass reads from the real runs.

// microCost is one layer operation's price: wall ns, plus how many
// simulator events and pool Gets it contains, so the ledger can charge those
// to sim and packet and keep only the remainder against the layer.
type microCost struct{ ns, events, gets float64 }

// perOp calibrates n so that fn(n) runs for about batch, runs seven such
// batches and returns the median wall ns per operation.
func perOp(batch time.Duration, fn func(n int)) float64 {
	n := 64
	for {
		t0 := time.Now()
		fn(n)
		if d := time.Since(t0); d >= batch/2 || n >= 1<<26 {
			break
		}
		n *= 2
	}
	per := make([]float64, 0, 7)
	for i := 0; i < 7; i++ {
		t0 := time.Now()
		fn(n)
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}

// microSimEvent prices schedule+fire on a chain of events, each scheduling
// the next: the engine's cost with no model attached and an almost empty
// heap, which is also the depth the other micro-drivers run at. What a deep
// heap adds in a real run is part of the ledger's unattributed line.
func microSimEvent(batch time.Duration) float64 {
	s := sim.New(1)
	left := 0
	var fire sim.EventFunc
	fire = func(_, _ any) {
		if left > 0 {
			left--
			s.AfterCall(1, fire, nil, nil)
		}
	}
	return perOp(batch, func(n int) {
		left = n
		s.AfterCall(1, fire, nil, nil)
		s.Run()
	})
}

// microNetemHop prices one link transmission on the smallest forwarding
// path, host -> switch -> host (two transmissions per packet).
func microNetemHop(batch time.Duration) microCost {
	s := sim.New(1)
	t := netem.NewTopology(s)
	sw := t.AddSwitch("S")
	cfg := netem.LinkConfig{RateBps: 40e9, Delay: 2 * sim.Microsecond}
	src := t.AddHost("h0", sw, cfg, cfg)
	t.AddHost("h1", sw, cfg, cfg)
	t.ComputeRoutes()
	send := func(n int) {
		for i := 0; i < n; i++ {
			pkt := t.Pool().Get()
			pkt.Kind = packet.KindData
			pkt.Inner = packet.FiveTuple{Src: 0, Dst: 1, SrcPort: 40000, DstPort: 80, Proto: packet.ProtoTCP}
			pkt.PayloadLen = 1460
			src.Send(pkt)
			s.Run()
		}
	}
	perPkt := perOp(batch, send)
	e0, g0 := s.Processed(), t.Pool().Gets()
	send(1000)
	const txPerPkt = 2
	return microCost{
		ns:     perPkt / txPerPkt,
		events: float64(s.Processed()-e0) / 1000 / txPerPkt,
		gets:   float64(t.Pool().Gets()-g0) / 1000 / txPerPkt,
	}
}

func microPoolGetPut(batch time.Duration) float64 {
	pool := &packet.Pool{}
	return perOp(batch, func(n int) {
		for i := 0; i < n; i++ {
			pool.Put(pool.Get())
		}
	})
}

// microTCPSegment prices one data segment and its ACK between a Sender and a
// Receiver joined by a lossless fixed-delay pipe.
func microTCPSegment(batch time.Duration) microCost {
	s := sim.New(1)
	cfg := tcp.DefaultConfig()
	pool := &packet.Pool{}
	cfg.Pool = pool
	flow := packet.FiveTuple{Src: 1, Dst: 2, SrcPort: 100, DstPort: 200, Proto: packet.ProtoTCP}
	const delay = 20 * sim.Microsecond
	var snd *tcp.Sender
	var rcv *tcp.Receiver
	toRcv := func(a, _ any) { rcv.HandleData(a.(*packet.Packet)) }
	toSnd := func(a, _ any) { snd.HandleAck(a.(*packet.Packet)) }
	snd = tcp.NewSender(s, cfg, flow, func(p *packet.Packet) { s.AfterCall(delay, toRcv, p, nil) })
	rcv = tcp.NewReceiver(s, cfg, flow, func(p *packet.Packet) { s.AfterCall(delay, toSnd, p, nil) })
	transfer := func(n int) {
		snd.StartJob(int64(n)*int64(cfg.MSS), func(sim.Time) {})
		s.Run()
	}
	perSeg := perOp(batch, transfer)
	e0, g0, s0 := s.Processed(), pool.Gets(), snd.Stats().SegmentsSent
	transfer(1000)
	segs := float64(snd.Stats().SegmentsSent - s0)
	return microCost{
		ns:     perSeg,
		events: float64(s.Processed()-e0) / segs,
		gets:   float64(pool.Gets()-g0) / segs,
	}
}

// cloveMicros prices the three Clove building blocks both products call:
// a WRR pick, a congestion report, and a flowlet-table touch over 64 flows
// where every eighth touch starts a new flowlet.
func cloveMicros(batch time.Duration) (wrrNext, onCongestion, flowletTouch float64) {
	ports := []uint16{50001, 50002, 50003, 50004}
	rtt := 100 * sim.Microsecond
	wt := clove.NewWeightTable(clove.DefaultWeightTableConfig(rtt), ports)
	var sink uint16
	wrrNext = perOp(batch, func(n int) {
		for i := 0; i < n; i++ {
			sink += wt.NextPort()
		}
	})
	now := sim.Time(0)
	onCongestion = perOp(batch, func(n int) {
		for i := 0; i < n; i++ {
			now += rtt
			wt.OnCongestion(ports[i&3], now)
		}
	})
	ft := clove.NewFlowletTable(rtt)
	flows := make([]packet.FiveTuple, 64)
	for i := range flows {
		flows[i] = packet.FiveTuple{Src: 1, Dst: 2, SrcPort: uint16(1000 + i), DstPort: 80, Proto: packet.ProtoTCP}
	}
	now = 0
	flowletTouch = perOp(batch, func(n int) {
		for i := 0; i < n; i++ {
			// Time creeps forward, and every 512th touch it jumps a whole gap,
			// so the next touch of each of the 64 flows starts a new flowlet.
			now += rtt / 1024
			if i&511 == 0 {
				now += rtt
			}
			e, isNew := ft.Touch(flows[i&63], now)
			if isNew {
				e.Port = ports[i&3]
			}
		}
	})
	_ = sink
	return wrrNext, onCongestion, flowletTouch
}

// wireMicros prices the datapath's fixed-offset shim encode and decode.
func wireMicros(batch time.Duration) (put, unmarshal float64) {
	shim := wire.SttShim{Version: 1, FlowletID: 7, PathPort: 50001, PayloadLen: 64,
		Feedback: wire.Feedback{Valid: true, Port: 50002, ECN: true}}
	buf := make([]byte, wire.SttShimLen)
	put = perOp(batch, func(n int) {
		for i := 0; i < n; i++ {
			shim.FlowletID = uint32(i)
			shim.Put(buf)
		}
	})
	var out wire.SttShim
	unmarshal = perOp(batch, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := out.Unmarshal(buf); err != nil {
				panic(err) // buf was written by Put above: only a bug reaches this
			}
		}
	})
	return put, unmarshal
}
