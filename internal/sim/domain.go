package sim

import (
	"cmp"
	"fmt"
	"slices"
)

// This file is the sharded engine: one simulation split into event domains,
// each a full Simulator (own slab heap, clock, RNG), coupled only through
// cross-domain messages that must respect a positive lookahead. Execution
// proceeds in conservative windows: every domain, in domain order on the
// calling goroutine, runs its events up to a horizon no later than (earliest
// pending event anywhere + lookahead); any message a domain emits during a
// window therefore arrives at or after the horizon, so it can be injected at
// the barrier before the next window without ever violating timestamp order.
// Domains never observe each other mid-window, which makes the execution
// order — and every simulated outcome — a pure function of the domain
// decomposition.
//
// Determinism contract: for a fixed engine (same domains, same seeds, same
// scheduled work), runs are bit-identical. The engine guarantees this by
// construction:
//
//   - each domain's event stream is a sequential Simulator run;
//   - cross-domain posts are buffered in one outbox and flushed at the barrier
//     in stable (time, source domain) order, which keeps each source's posts
//     in the order it made them;
//   - global control actions (route recomputation, scripted failures, stop
//     checks) execute at barriers, at deterministic times.
//
// Note that a sharded run defines its *own* total order of same-timestamp
// events — not identical to running the same workload on one shared
// Simulator. That order is why the domains exist at all: a window holds a
// handful of events (DESIGN.md §4d, "Why serial"), far too few to pay for a
// thread barrier, so nothing here runs concurrently.

// timeMax is the sentinel for "no pending event".
const timeMax = Time(1<<63 - 1)

// xpost is one buffered cross-domain message: fn(a, b) scheduled onto the
// dst domain at time at. src breaks ties between messages landing at the
// same timestamp.
type xpost struct {
	at       Time
	src, dst int32
	fn       EventFunc
	a, b     any
}

// globalEvent is one serialized control-plane action, run at a barrier.
type globalEvent struct {
	at  Time
	seq uint64
	fn  func()
}

// Domain is one shard of a sharded simulation: a full Simulator plus its
// place in the engine. Components inside a domain hold the embedded
// *Simulator and schedule on it exactly as in a single-sim run; only
// boundary components (cross-domain links, workload fan-out) use Post.
type Domain struct {
	*Simulator
	id  int32
	eng *Engine
}

// ID returns the domain's index within its engine.
func (d *Domain) ID() int { return int(d.id) }

// Engine returns the engine this domain belongs to.
func (d *Domain) Engine() *Engine { return d.eng }

// Post schedules fn(a, b) at absolute time at on the dst domain. It is the
// only legal way to touch another domain: the message is buffered in the
// engine's outbox and injected into dst's event queue at the next barrier.
//
// at must be at least the posting domain's current time plus the engine
// lookahead — the conservative-synchronization contract that makes barrier
// injection safe. Posting under the lookahead panics immediately, naming
// the violation at its source rather than corrupting the schedule.
//
// Post is allocation-free in steady state: the outbox slice is reused
// across windows, and pointer operands box into the interface fields
// without allocating.
func (d *Domain) Post(dst int, at Time, fn EventFunc, a, b any) {
	if dst < 0 || dst >= len(d.eng.domains) {
		panic(fmt.Sprintf("sim: post to unknown domain %d", dst))
	}
	if earliest := d.Now() + d.eng.lookahead; at < earliest {
		panic(fmt.Sprintf("sim: cross-domain post at %v under lookahead (now %v + %v)",
			at, d.Now(), d.eng.lookahead))
	}
	d.eng.posts = append(d.eng.posts, xpost{at: at, src: d.id, dst: int32(dst), fn: fn, a: a, b: b})
}

// Engine coordinates a set of event domains through conservative windows.
// Build it once per run: NewEngine, AddDomain for every shard, wire the
// model, then Run. Engines are not reusable across topologies.
type Engine struct {
	seed      int64
	lookahead Time
	domains   []*Domain
	now       Time // last barrier time; all domain clocks equal it between windows

	globals []globalEvent // sorted by (at, seq)
	gseq    uint64

	posts []xpost // the cross-domain outbox, in posting order; backing array reused
}

// NewEngine creates an engine with the given base seed and lookahead. The
// lookahead must be positive: it is the minimum timestamp increment of any
// cross-domain message (in the network model, the smallest propagation
// delay of a trunk link crossing a domain boundary), and it is what bounds
// each window's horizon.
func NewEngine(seed int64, lookahead Time) *Engine {
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: non-positive engine lookahead %v", lookahead))
	}
	return &Engine{seed: seed, lookahead: lookahead}
}

// AddDomain creates the next domain. Its Simulator seed is derived from the
// engine seed and the domain index with a fixed mix, so every domain draws
// an independent, reproducible random stream.
func (e *Engine) AddDomain() *Domain {
	id := len(e.domains)
	seed := int64(uint64(e.seed) + uint64(id+1)*0x9e3779b97f4a7c15)
	d := &Domain{Simulator: New(seed), id: int32(id), eng: e}
	e.domains = append(e.domains, d)
	return d
}

// Lookahead returns the engine's cross-domain lookahead.
func (e *Engine) Lookahead() Time { return e.lookahead }

// Now returns the last barrier time. Between windows every domain clock
// equals it.
func (e *Engine) Now() Time { return e.now }

// NumDomains returns the number of domains.
func (e *Engine) NumDomains() int { return len(e.domains) }

// Domain returns the i-th domain.
func (e *Engine) Domain(i int) *Domain { return e.domains[i] }

// Processed sums fired events across all domains.
func (e *Engine) Processed() uint64 {
	var n uint64
	for _, d := range e.domains {
		n += d.Simulator.Processed()
	}
	return n
}

// Pending sums scheduled-but-unfired events across all domains plus queued
// global actions. Between windows no cross-domain posts are outstanding, so
// Pending()==0 means the whole sharded simulation has drained — the state
// the oracle's conservation audit requires.
func (e *Engine) Pending() int {
	n := len(e.globals)
	for _, d := range e.domains {
		n += d.Simulator.Pending()
	}
	return n
}

// GlobalAt schedules a control-plane action at absolute time at. Globals
// run at a barrier once every domain clock has reached exactly that time,
// after all domain events with timestamps <= at have fired — they may
// therefore touch state in any domain (route tables, link administrative
// state, load knobs). Scheduling in the past panics.
func (e *Engine) GlobalAt(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: global event at %v before engine now %v", at, e.now))
	}
	ev := globalEvent{at: at, seq: e.gseq, fn: fn}
	e.gseq++
	// Insert keeping (at, seq) order; the timeline is short and cold.
	i := len(e.globals)
	for i > 0 && e.globals[i-1].at > at {
		i--
	}
	e.globals = append(e.globals, globalEvent{})
	copy(e.globals[i+1:], e.globals[i:])
	e.globals[i] = ev
}

// GlobalAfter schedules a control-plane action delay after the last
// barrier time.
func (e *Engine) GlobalAfter(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative global delay %v", delay))
	}
	e.GlobalAt(e.now+delay, fn)
}

// minNext returns the earliest pending event timestamp across domains. Run
// scans for it only on entry and after globals, which may schedule domain
// events; otherwise window and flushPosts report it.
func (e *Engine) minNext() Time {
	min := timeMax
	for _, d := range e.domains {
		if at, ok := d.NextEventAt(); ok && at < min {
			min = at
		}
	}
	return min
}

// Run executes the sharded simulation until every queue drains, until the
// deadline is reached, or until stop (evaluated at each barrier) reports
// true. On return every domain clock equals min(deadline, drain time).
func (e *Engine) Run(until Time, stop func() bool) {
	if until < e.now {
		panic(fmt.Sprintf("sim: engine deadline %v before now %v", until, e.now))
	}
	tmin := e.minNext()
	for {
		if stop != nil && stop() {
			return
		}
		gmin := timeMax
		if len(e.globals) > 0 {
			gmin = e.globals[0].at
		}
		// horizon = min(until, gmin, tmin+lookahead): domain events at exactly
		// gmin fire first, then the globals. The subtraction keeps a drained
		// tmin (timeMax) from overflowing.
		horizon := min(until, gmin)
		if tmin < horizon-e.lookahead {
			horizon = tmin + e.lookahead
		}
		// The earliest event left pending is the window's own or the flush's:
		// nothing else schedules on a domain between windows but a global.
		next := min(e.window(horizon), e.flushPosts())
		e.now = horizon
		if horizon == gmin {
			e.runGlobals(gmin)
			next = e.minNext()
		} else if tmin > until {
			// Nothing was pending at or before the deadline (drained included),
			// so this window only advanced the clocks to it.
			return
		}
		tmin = next
	}
}

// window runs, in domain order, every domain with an event at or before
// horizon up to and including it, and advances every other domain's clock to
// horizon in the same pass — so all clocks equal horizon afterwards. It
// returns the earliest event left pending (timeMax if none).
func (e *Engine) window(horizon Time) Time {
	next := timeMax
	for _, d := range e.domains {
		at, ok := d.NextEventAt()
		if ok && at <= horizon {
			d.RunUntil(horizon)
			at, ok = d.NextEventAt()
		} else {
			d.now = horizon
		}
		if ok && at < next {
			next = at
		}
	}
	return next
}

// flushPosts injects every message buffered since the last flush into its
// destination domain, in (time, source domain, source posting order). Each
// source appends its own posts in the order it makes them, however sources
// interleave, so a stable sort on (time, source) yields exactly that total
// order. It is a pure function of the window's contents, so the resulting
// event sequence numbers — and hence same-timestamp tie-breaks — are too. The
// outbox is reused; the flush allocates nothing in steady state. It returns
// the earliest injected time (timeMax if the outbox was empty).
func (e *Engine) flushPosts() Time {
	if len(e.posts) == 0 {
		return timeMax
	}
	slices.SortStableFunc(e.posts, func(a, b xpost) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.src, b.src))
	})
	for i := range e.posts {
		p := &e.posts[i]
		e.domains[p.dst].AtCall(p.at, p.fn, p.a, p.b)
		p.fn, p.a, p.b = nil, nil, nil
	}
	first := e.posts[0].at
	e.posts = e.posts[:0]
	return first
}

// runGlobals executes every queued global action with timestamp at, in
// scheduling order, including any the actions themselves add at the same
// time.
func (e *Engine) runGlobals(at Time) {
	for len(e.globals) > 0 && e.globals[0].at == at {
		fn := e.globals[0].fn
		copy(e.globals, e.globals[1:])
		e.globals = e.globals[:len(e.globals)-1]
		fn()
	}
}
