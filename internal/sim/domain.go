package sim

import (
	"cmp"
	"fmt"
	"slices"
)

// This file is the sharded engine: one simulation split into event domains,
// each a full Simulator (own event queue, clock, RNG), coupled only through
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
//
// A one-domain engine is exactly New(seed): a lone domain has no other
// domain to wait for, so it runs without windows, barriers or posts.

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

// Post schedules fn(a, b) at absolute time at on the dst domain. It is the
// only legal way to touch another domain: the message is buffered in the
// engine's outbox and injected into dst's event queue at the next barrier.
//
// at must be at least the posting domain's current time plus the engine
// lookahead — the conservative-synchronization contract that makes barrier
// injection safe. Posting under the lookahead panics immediately, naming
// the violation at its source rather than corrupting the schedule. So does
// any post on a one-domain engine, whose Run never flushes an outbox.
//
// Post is allocation-free in steady state: the outbox slice is reused
// across windows, and pointer operands box into the interface fields
// without allocating.
func (d *Domain) Post(dst int, at Time, fn EventFunc, a, b any) {
	if n := len(d.eng.domains); n == 1 || dst < 0 || dst >= n {
		panic(fmt.Sprintf("sim: post to domain %d of a %d-domain engine", dst, n))
	}
	if earliest := d.Now() + d.eng.lookahead; at < earliest {
		panic(fmt.Sprintf("sim: cross-domain post at %v under lookahead (now %v + %v)",
			at, d.Now(), d.eng.lookahead))
	}
	d.eng.posts = append(d.eng.posts, xpost{at: at, src: d.id, dst: int32(dst), fn: fn, a: a, b: b})
}

// Engine coordinates a set of event domains through conservative windows.
// Build it once per run: NewEngine, wire the model onto its domains, then
// Run. Engines are not reusable across topologies.
type Engine struct {
	lookahead Time
	domains   []*Domain
	now       Time // last barrier time; every domain clock equals it outside Run

	// next[i] is the time of domain i's earliest pending event (heap root or
	// lane head), or timeMax when it has none: the window pass reads this
	// dense array instead of every domain's queue, and touches a Domain only
	// when it has an event in the window. Nil on a one-domain engine.
	next []Time

	globals []globalEvent // sorted by (at, seq)
	gseq    uint64

	posts []xpost // the cross-domain outbox, in posting order; backing array reused
}

// NewEngine creates an engine of n domains with the given base seed and
// lookahead. With n > 1 each domain's seed is derived from the base seed and
// the domain index with a fixed mix, so every domain draws an independent,
// reproducible random stream; a lone domain is seeded with seed itself. The
// lookahead must be positive: it is the minimum timestamp increment of any
// cross-domain message (in the network model, the smallest propagation
// delay of a trunk link crossing a domain boundary), and it is what bounds
// each window's horizon.
func NewEngine(seed int64, lookahead Time, n int) *Engine {
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: non-positive engine lookahead %v", lookahead))
	}
	e := &Engine{lookahead: lookahead, domains: make([]*Domain, n)}
	if n > 1 {
		e.next = make([]Time, n)
	}
	for id := range e.domains {
		s := seed
		if n > 1 {
			s = int64(uint64(seed) + uint64(id+1)*0x9e3779b97f4a7c15)
		}
		e.domains[id] = &Domain{Simulator: New(s), id: int32(id), eng: e}
	}
	return e
}

// Lookahead returns the engine's cross-domain lookahead.
func (e *Engine) Lookahead() Time { return e.lookahead }

// Now returns the last barrier time, which every domain clock equals inside
// globals and between Run calls — on a one-domain engine, the domain's own
// clock.
func (e *Engine) Now() Time {
	if len(e.domains) == 1 {
		return e.domains[0].now
	}
	return e.now
}

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
// state, load knobs). On a one-domain engine a global is an ordinary event
// on the domain. Scheduling in the past panics.
func (e *Engine) GlobalAt(at Time, fn func()) {
	if len(e.domains) == 1 {
		e.domains[0].At(at, fn)
		return
	}
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

// GlobalAfter schedules a control-plane action delay after Now.
func (e *Engine) GlobalAfter(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative global delay %v", delay))
	}
	e.GlobalAt(e.Now()+delay, fn)
}

// head returns the time of d's earliest pending event, heap or lane, or
// timeMax if it has none.
func head(d *Domain) Time {
	if at, ok := d.NextEventAt(); ok {
		return at
	}
	return timeMax
}

// minNext refills next from every domain's queue and returns its minimum, the
// earliest pending event anywhere. Run scans the queues only on entry and
// after globals, which may schedule domain events from outside the engine;
// otherwise window and flushPosts keep next current.
func (e *Engine) minNext() Time {
	tmin := timeMax
	for i, d := range e.domains {
		e.next[i] = head(d)
		tmin = min(tmin, e.next[i])
	}
	return tmin
}

// syncClocks raises every domain clock to e.now. A window advances only the
// clocks of the domains it runs; the rest lag until code outside any domain
// can read them — a global, or Run's caller.
func (e *Engine) syncClocks() {
	for _, d := range e.domains {
		d.now = e.now
	}
}

// Run executes the simulation until every queue drains, until the deadline
// is reached, or until an event calls its domain's Stop. On a one-domain
// engine Run is the domain's RunUntil, which a Stop halts at the stopping
// event. On several domains a Stop ends Run at the stopping window's
// barrier. Every domain clock equals Now when Run returns.
func (e *Engine) Run(until Time) {
	if until < e.Now() {
		panic(fmt.Sprintf("sim: engine deadline %v before now %v", until, e.Now()))
	}
	if len(e.domains) == 1 {
		e.domains[0].RunUntil(until)
		return
	}
	tmin := e.minNext()
	for {
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
		next, stopped := e.window(horizon)
		next = min(next, e.flushPosts())
		e.now = horizon
		if horizon == gmin {
			e.syncClocks()
			e.runGlobals(gmin)
			next = e.minNext()
		} else if tmin > until {
			// Nothing was pending at or before the deadline (drained included),
			// so this window only advanced the engine clock to it.
			break
		}
		if stopped {
			break
		}
		tmin = next
	}
	e.syncClocks()
}

// window runs, in domain order, every domain whose earliest pending event is
// at or before horizon up to and including it, and rewrites that domain's
// next entry. A domain with nothing in the window costs one read of next; its
// clock is left behind, which nothing can observe until syncClocks. A domain
// that stops resumes to horizon. It returns the earliest event left pending
// (timeMax if none) and whether any domain stopped.
func (e *Engine) window(horizon Time) (next Time, stopped bool) {
	next = timeMax
	for i, at := range e.next {
		if at <= horizon {
			d := e.domains[i]
			for d.RunUntil(horizon); d.stopped; d.RunUntil(horizon) {
				stopped = true
			}
			at = head(d)
			e.next[i] = at
		}
		next = min(next, at)
	}
	return next, stopped
}

// flushPosts injects every message buffered since the last flush into its
// destination domain, in (time, source domain, source posting order). Each
// source appends its own posts in the order it makes them, however sources
// interleave, so a stable sort on (time, source) yields exactly that total
// order. It is a pure function of the window's contents, so the resulting
// event sequence numbers — and hence same-timestamp tie-breaks — are too. The
// outbox is reused; the flush allocates nothing in steady state. It lowers
// each destination's next entry to what it injects there and returns the
// earliest injected time (timeMax if the outbox was empty).
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
		e.next[p.dst] = min(e.next[p.dst], p.at)
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
