package packet

// Pool is a single-threaded free list of Packet structs (a packet's overlay
// and CONGA headers are stored inside it, so there is nothing else to pool),
// owned by one simulation (the topology builder creates it; every element of
// that simulation shares it). It exists because the
// simulator's hot path — one Packet per TCP segment, one ACK per delivery —
// otherwise spends most of its time in the allocator.
//
// Pool is deliberately not a sync.Pool: simulations are sequential programs
// and a sync.Pool's per-P caches and GC-driven emptying would both cost
// more and make reuse patterns nondeterministic across runs.
//
// All methods are nil-receiver safe: a nil *Pool degrades to plain
// allocation on Get and a no-op on Put, so components built outside a
// pooled simulation (unit tests, examples) need no wiring.
//
// See the package comment for the ownership rule governing who must call
// Put. Put zeroes the struct before recycling, so recycled and fresh
// structs are indistinguishable — a requirement for run determinism.
//
// The free list has no cap: every struct on it was live at once, so it
// never holds more than the run's peak number of in-flight packets.
type Pool struct {
	packets []*Packet

	// Counters for telemetry and leak tests.
	gets, puts int64

	// obs, when non-nil, observes every pool event (and, via Obs, every
	// datapath event of the components sharing this pool). See Observer.
	obs Observer
}

// SetObserver installs (or, with nil, removes) the datapath observer. Safe
// on a nil pool (no-op), so test helpers can call it unconditionally.
func (p *Pool) SetObserver(o Observer) {
	if p == nil {
		return
	}
	p.obs = o
}

// Obs returns the installed observer, nil when disabled or when p is nil.
// Datapath components fetch their observer through the pool they already
// share; the nil check at each hook site is the entire disabled-mode cost.
func (p *Pool) Obs() Observer {
	if p == nil {
		return nil
	}
	return p.obs
}

// Gets reports how many packets this pool has issued (fresh or recycled).
func (p *Pool) Gets() int64 {
	if p == nil {
		return 0
	}
	return p.gets
}

// Puts reports how many packets have been released back.
func (p *Pool) Puts() int64 {
	if p == nil {
		return 0
	}
	return p.puts
}

// Get returns a zeroed packet, recycled when possible.
func (p *Pool) Get() *Packet {
	if p == nil {
		return &Packet{}
	}
	p.gets++
	if n := len(p.packets); n > 0 {
		pkt := p.packets[n-1]
		p.packets[n-1] = nil
		p.packets = p.packets[:n-1]
		if p.obs != nil {
			p.obs.PoolGet(pkt)
		}
		return pkt
	}
	pkt := &Packet{}
	if p.obs != nil {
		p.obs.PoolGet(pkt)
	}
	return pkt
}

// Put releases a packet, headers included, back to the pool. The packet must
// not be referenced afterwards. Put(nil) is a no-op.
func (p *Pool) Put(pkt *Packet) {
	if p == nil || pkt == nil {
		return
	}
	if p.obs != nil {
		p.obs.PoolPut(pkt)
	}
	p.puts++
	*pkt = Packet{}
	p.packets = append(p.packets, pkt)
}
