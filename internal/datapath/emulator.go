package datapath

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"
)

// PathEmulator is an in-process stand-in for an ECMP fabric, used by tests
// and the realnet example: it listens on one UDP ingress, classifies each
// datagram by the sender's path (the shim-restated source port, exactly
// what a real ECMP hash keys on), and forwards it to the configured
// destination through a per-path token-bucket queue with its own rate,
// delay, and ECN-marking threshold. A congested emulated path marks the
// datagram's fabric byte the way a switch would mark the outer IP header.
//
// A path is two FIFO stages, as a link is: the pacer serializes the queue
// at the path's rate, and the wire holds each datagram for the path's delay
// from when it leaves the pacer. Many datagrams can be on the wire at once,
// so the delay adds latency without limiting throughput.
type PathEmulator struct {
	ingress *net.UDPConn
	out     *net.UDPConn
	destAP  netip.AddrPort

	// paths and nextIdx are touched only by the ingress goroutine (run):
	// each new sender port gets the next profile in order.
	paths    map[uint16]*emuPath // keyed by sender path port
	nextIdx  int
	profiles []PathProfile

	// freeBufs recycles packet buffers between the ingress reader and the
	// per-path writers so the steady-state forwarding path does not allocate
	// (a datagram is read straight into a pooled buffer, queued, written
	// out, and the buffer returned).
	freeBufs chan []byte

	closed chan struct{}
	wg     sync.WaitGroup
}

// emuPoolSize bounds the buffer free list (beyond it, buffers are dropped
// to the garbage collector; under it, new ones are allocated on demand).
const emuPoolSize = 1024

func (e *PathEmulator) getBuf() []byte {
	select {
	case b := <-e.freeBufs:
		return b[:cap(b)]
	default:
		return make([]byte, 65536)
	}
}

func (e *PathEmulator) putBuf(b []byte) {
	select {
	case e.freeBufs <- b:
	default:
	}
}

// PathProfile shapes one emulated path. Every path's queue holds 256
// datagrams (emuQueueCap), drop-tail.
type PathProfile struct {
	RateBps int64 // token rate; 0 = unlimited
	// Delay is the added one-way delay, waited out with time.Sleep. A
	// sub-millisecond sleep can take about 1 ms (it did on a 2-vCPU VM:
	// 20 datagrams through a 100 µs path averaged 0.97 ms), so a Delay
	// under about 1 ms may be served as about 1 ms.
	Delay    time.Duration
	ECNDepth int // queue depth (packets) beyond which CE is set; 0 = never
}

// emuQueueCap is the drop-tail bound of every emulated path's queue.
const emuQueueCap = 256

// emuPath is the runtime state of one path: queue feeds the pacer and its
// length is the path's depth; wire holds paced datagrams until release.
type emuPath struct {
	profile PathProfile
	queue   chan stamped // stamped with arrival
	wire    chan stamped // stamped with release
}

// stamped is a datagram and the time it arrived at the path (in queue) or
// leaves it (on the wire).
type stamped struct {
	pkt []byte
	at  time.Time
}

// emuWireCap bounds the datagrams one path holds in flight; a full wire
// stalls the pacer, so the queue behind it fills and drops.
const emuWireCap = emuPoolSize

// NewPathEmulator creates an emulator with one queue per profile; sender
// ports are assigned to profiles round-robin in order of first appearance
// (deterministic for a fixed send pattern).
func NewPathEmulator(localIP string, dest string, profiles []PathProfile) (*PathEmulator, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("datapath: emulator needs at least one path profile")
	}
	ingress, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.ParseIP(localIP)})
	if err != nil {
		return nil, fmt.Errorf("datapath: emulator ingress: %w", err)
	}
	out, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.ParseIP(localIP)})
	if err != nil {
		ingress.Close()
		return nil, fmt.Errorf("datapath: emulator egress: %w", err)
	}
	destAddr, err := net.ResolveUDPAddr("udp", dest)
	if err != nil {
		ingress.Close()
		out.Close()
		return nil, fmt.Errorf("datapath: emulator dest: %w", err)
	}
	ingress.SetReadBuffer(4 << 20)
	out.SetWriteBuffer(4 << 20)
	destAP := destAddr.AddrPort()
	e := &PathEmulator{
		ingress:  ingress,
		out:      out,
		destAP:   netip.AddrPortFrom(destAP.Addr().Unmap(), destAP.Port()),
		paths:    map[uint16]*emuPath{},
		profiles: profiles,
		freeBufs: make(chan []byte, emuPoolSize),
		closed:   make(chan struct{}),
	}
	e.wg.Add(1)
	go e.run()
	return e, nil
}

// Addr returns the emulator's ingress address (point endpoints here).
func (e *PathEmulator) Addr() string { return e.ingress.LocalAddr().String() }

// run receives and dispatches datagrams to per-path queues. Each datagram
// is read directly into a pooled buffer that travels through the path
// queue and returns to the pool after the egress write — no per-packet
// allocation or copy in steady state.
func (e *PathEmulator) run() {
	defer e.wg.Done()
	for {
		buf := e.getBuf()
		n, _, err := e.ingress.ReadFromUDPAddrPort(buf)
		if err != nil {
			e.putBuf(buf)
			select {
			case <-e.closed:
				return
			default:
				continue
			}
		}
		e.dispatch(buf[:n])
	}
}

// pathPortOf extracts the sender's path port from the datagram (fabric byte
// + shim at fixed offset 16 within the shim).
func pathPortOf(pkt []byte) uint16 {
	if len(pkt) < headerLen {
		return 0
	}
	return uint16(pkt[1+16])<<8 | uint16(pkt[1+17])
}

func (e *PathEmulator) dispatch(pkt []byte) {
	port := pathPortOf(pkt)
	p := e.paths[port]
	if p == nil {
		profile := e.profiles[e.nextIdx%len(e.profiles)]
		e.nextIdx++
		p = &emuPath{profile: profile, queue: make(chan stamped, emuQueueCap), wire: make(chan stamped, emuWireCap)}
		e.paths[port] = p
		e.wg.Add(2)
		go e.pace(p)
		go e.deliver(p)
	}

	if p.profile.ECNDepth > 0 && len(p.queue) >= p.profile.ECNDepth && len(pkt) > 0 {
		pkt[0] |= fabricCE // mark like a switch whose queue exceeds K
	}
	select {
	case p.queue <- stamped{pkt, time.Now()}:
	default:
		// drop-tail: recycle the buffer
		e.putBuf(pkt)
	}
}

// pace serializes one path's queue at its configured rate and puts each
// datagram on the wire, stamped with its release time. Transmissions run on
// a departure clock, done = max(arrival, done) + tx, so a late wake-up
// delays the datagrams behind it without lowering the path's rate.
func (e *PathEmulator) pace(p *emuPath) {
	defer e.wg.Done()
	var done time.Time
	for {
		select {
		case <-e.closed:
			return
		case q := <-p.queue:
			if done.Before(q.at) {
				done = q.at
			}
			if p.profile.RateBps > 0 {
				done = done.Add(time.Duration(int64(len(q.pkt)) * 8 * int64(time.Second) / p.profile.RateBps))
				if d := time.Until(done); d > 0 {
					time.Sleep(d)
				}
			}
			select {
			case <-e.closed:
				e.putBuf(q.pkt)
				return
			case p.wire <- stamped{q.pkt, done.Add(p.profile.Delay)}:
			}
		}
	}
}

// deliver writes one path's datagrams out in wire order, each at its
// release time, and recycles their buffers.
func (e *PathEmulator) deliver(p *emuPath) {
	defer e.wg.Done()
	for {
		select {
		case <-e.closed:
			return
		case w := <-p.wire:
			if d := time.Until(w.at); d > 0 {
				time.Sleep(d)
			}
			e.out.WriteToUDPAddrPort(w.pkt, e.destAP)
			e.putBuf(w.pkt)
		}
	}
}

// Close shuts the emulator down.
func (e *PathEmulator) Close() error {
	select {
	case <-e.closed:
	default:
		close(e.closed)
	}
	e.ingress.Close()
	e.out.Close()
	e.wg.Wait()
	return nil
}
