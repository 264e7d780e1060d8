package sim

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// ringModel is a small multi-domain workload used by the determinism tests:
// every domain runs a local event chain with RNG-jittered gaps, and every
// few events posts a message to the next domain in the ring with an
// RNG-jittered cross-domain delay (always >= lookahead). Each fired event
// appends a record to its domain's log and to the firing-order log.
type ringModel struct {
	eng  *Engine
	logs [][]string
	all  []string // every record, in the order the engine fired them
}

const ringLookahead = 5 * Microsecond

// buildRing boots a chain on each of the first booted of nDomains domains;
// the rest only receive the ring's posts.
func buildRing(seed int64, nDomains, booted int) *ringModel {
	eng := NewEngine(seed, ringLookahead, nDomains)
	m := &ringModel{eng: eng, logs: make([][]string, nDomains)}
	for i := 0; i < booted; i++ {
		m.start(eng.Domain(i), fmt.Sprintf("boot%d", i))
	}
	return m
}

func (m *ringModel) start(d *Domain, tag string) {
	d.After(Time(d.Rand().Int63n(int64(Microsecond))), func() { m.step(d, tag, 0) })
}

func (m *ringModel) step(d *Domain, tag string, n int) {
	rec := fmt.Sprintf("%s#%d@%d r%d", tag, n, d.Now(), d.Rand().Int63n(1000))
	m.logs[d.ID()] = append(m.logs[d.ID()], rec)
	m.all = append(m.all, fmt.Sprintf("d%d %s", d.ID(), rec))
	if n >= 40 {
		return
	}
	if n%5 == 4 {
		dst := (d.ID() + 1) % m.eng.NumDomains()
		at := d.Now() + m.eng.Lookahead() + Time(d.Rand().Int63n(int64(2*Microsecond)))
		hop := fmt.Sprintf("%s>%d", tag, dst)
		d.Post(dst, at, func(a, _ any) {
			t := a.(*Domain)
			m.step(t, hop, n+1)
		}, m.eng.Domain(dst), nil)
	}
	d.After(Time(1+d.Rand().Int63n(int64(3*Microsecond))), func() { m.step(d, tag, n+1) })
}

func (m *ringModel) run(until Time) []string {
	m.eng.Run(until)
	var all []string
	for i, lg := range m.logs {
		for _, s := range lg {
			all = append(all, fmt.Sprintf("d%d %s", i, s))
		}
	}
	return all
}

// TestEngineDeterministicAcrossRuns is the engine's determinism contract:
// the same seeded model, built twice, produces an identical per-domain
// event log.
func TestEngineDeterministicAcrossRuns(t *testing.T) {
	const until = 500 * Microsecond
	ref := buildRing(42, 6, 6).run(until)
	if len(ref) == 0 {
		t.Fatal("reference run produced no events")
	}
	if got := buildRing(42, 6, 6).run(until); !reflect.DeepEqual(got, ref) {
		t.Fatalf("second run's log diverges from the first (len %d vs %d)", len(got), len(ref))
	}
}

// TestEngineSeedSensitivity guards against the domains accidentally sharing
// one RNG stream: a different engine seed must change the log.
func TestEngineSeedSensitivity(t *testing.T) {
	const until = 500 * Microsecond
	a := buildRing(1, 4, 4).run(until)
	b := buildRing(2, 4, 4).run(until)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds produced identical logs")
	}
}

// TestEnginePostUnderLookaheadPanics pins the conservative-sync contract:
// posting a cross-domain message closer than the lookahead is a bug in the
// model and must fail loudly at the source.
func TestEnginePostUnderLookaheadPanics(t *testing.T) {
	eng := NewEngine(7, 10*Microsecond, 2)
	d0 := eng.Domain(0)
	d0.At(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("post under lookahead did not panic")
			}
		}()
		d0.Post(1, d0.Now()+9*Microsecond, func(any, any) {}, nil, nil)
	})
	eng.Run(Microsecond)
}

// TestEngineZeroLookaheadPanics: a zero or negative lookahead would allow
// same-instant cross-domain causality and deadlock the window computation.
func TestEngineZeroLookaheadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewEngine(lookahead=0) did not panic")
		}
	}()
	NewEngine(1, 0, 2)
}

// TestEngineGlobalsRunAtBarriers pins the ordering contract for control
// events: all domain events with timestamps <= t fire before a global at t,
// and globals at the same time run in scheduling order (including ones they
// enqueue themselves) — also when t is the deadline itself.
func TestEngineGlobalsRunAtBarriers(t *testing.T) {
	eng := NewEngine(3, 2*Microsecond, 2)
	d0, d1 := eng.Domain(0), eng.Domain(1)
	var order []string
	d0.At(10*Microsecond, func() { order = append(order, "d0@10") })
	d1.At(10*Microsecond, func() { order = append(order, "d1@10") })
	d1.At(11*Microsecond, func() { order = append(order, "d1@11") })
	eng.GlobalAt(10*Microsecond, func() {
		order = append(order, "g1@10")
		eng.GlobalAt(10*Microsecond, func() { order = append(order, "g3@10") })
	})
	eng.GlobalAt(10*Microsecond, func() { order = append(order, "g2@10") })
	eng.GlobalAt(5*Microsecond, func() { order = append(order, "g0@5") })
	want := []string{"g0@5", "d0@10", "d1@10", "g1@10", "g2@10", "g3@10", "d1@11"}
	eng.Run(10 * Microsecond) // deadline == global time == an event's time
	if !reflect.DeepEqual(order, want[:6]) || eng.Now() != 10*Microsecond || eng.Pending() != 1 {
		t.Fatalf("at the 10µs deadline: order = %v, Now() = %v, Pending() = %d", order, eng.Now(), eng.Pending())
	}
	eng.Run(20 * Microsecond)
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if eng.Now() != 20*Microsecond {
		t.Fatalf("Now() = %v after drain, want 20µs", eng.Now())
	}
	if eng.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain", eng.Pending())
	}
}

// TestEnginePostTieOrder pins the flush order: per destination, messages
// fire by (time, source domain id, order the source posted them), however
// the sources' posts to different destinations and times interleave in the
// outbox.
func TestEnginePostTieOrder(t *testing.T) {
	const us = Microsecond
	eng := NewEngine(5, us, 4)
	var doms []*Domain
	for i := 0; i < 4; i++ {
		doms = append(doms, eng.Domain(i))
	}
	// A pending event at 0 bounds the first window at 1µs, before any
	// message lands.
	doms[0].At(0, func() {})
	var got [2][]string
	nth := map[int]int{}
	for _, p := range []struct {
		src, dst int
		at       Time
	}{
		{3, 0, 2 * us}, {3, 0, 2 * us}, {2, 1, 2 * us}, {1, 0, 2 * us}, {3, 1, 3 * us}, {2, 0, 3 * us},
		{1, 0, 2 * us}, {2, 1, 2 * us}, {3, 1, 2 * us}, {1, 1, 3 * us}, {2, 0, 2 * us}, {3, 0, 3 * us},
	} {
		dst, label := p.dst, fmt.Sprintf("s%d#%d", p.src, nth[p.src]) // k-th post of its source
		nth[p.src]++
		doms[p.src].Post(dst, p.at, func(any, any) { got[dst] = append(got[dst], label) }, nil, nil)
	}
	eng.Run(10 * us)
	want := [2][]string{
		{"s1#0", "s1#1", "s2#3", "s3#0", "s3#1", "s2#1", "s3#4"},
		{"s2#0", "s2#2", "s3#3", "s1#2", "s3#2"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("arrival order = %v, want %v", got, want)
	}
}

// TestEngineStopAtBarrier: on several domains a Stop ends Run at the
// stopping window's barrier, not at the stopping event — the stopped domain
// resumes to the horizon and the others run their window — and leaves the
// engine resumable.
func TestEngineStopAtBarrier(t *testing.T) {
	const tick = 300 * Nanosecond
	eng := NewEngine(9, Microsecond, 2)
	d0, d1 := eng.Domain(0), eng.Domain(1)
	var fired [2]int
	for i, d := range []*Domain{d0, d1} {
		i, d := i, d
		var step func()
		step = func() {
			if fired[i]++; i == 0 && fired[i] == 10 {
				d.Stop() // at 3µs, inside the window ending at 3.7µs
			}
			d.After(tick, step)
		}
		d.After(tick, step)
	}
	eng.Run(Second)
	if want := 3700 * Nanosecond; eng.Now() != want || fired != [2]int{12, 12} {
		t.Fatalf("stopped at %v with %v events fired, want %v and [12 12]", eng.Now(), fired, want)
	}
	checkClocks(t, eng, "after the stop")
	eng.Run(10 * Microsecond)
	if fired != [2]int{33, 33} {
		t.Fatalf("after resuming to 10µs: fired %v, want [33 33]", fired)
	}
}

// TestOneDomainPostPanics: a one-domain engine has no outbox flush, so a
// post would be silently lost; it panics at its source instead.
func TestOneDomainPostPanics(t *testing.T) {
	eng := NewEngine(1, Microsecond, 1)
	defer func() {
		if recover() == nil {
			t.Error("post on a one-domain engine did not panic")
		}
	}()
	eng.Domain(0).Post(0, Millisecond, func(any, any) {}, nil, nil)
}

// TestEngineProcessedPending sanity-checks the aggregate accounting.
func TestEngineProcessedPending(t *testing.T) {
	eng := NewEngine(11, Microsecond, 2)
	d0, d1 := eng.Domain(0), eng.Domain(1)
	d0.At(Microsecond, func() {})
	d1.At(Microsecond, func() {})
	d1.At(2*Microsecond, func() {})
	eng.GlobalAt(3*Microsecond, func() {})
	if eng.Pending() != 4 {
		t.Fatalf("Pending() = %d, want 4", eng.Pending())
	}
	eng.Run(Millisecond)
	if eng.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", eng.Pending())
	}
	if eng.Processed() != 3 {
		t.Fatalf("Processed() = %d, want 3", eng.Processed())
	}
}

// checkClocks fails unless every domain clock equals the engine's.
func checkClocks(t *testing.T, eng *Engine, where string) {
	t.Helper()
	for i := 0; i < eng.NumDomains(); i++ {
		if got := eng.Domain(i).Now(); got != eng.Now() {
			t.Fatalf("%s: domain %d clock %v, engine %v", where, i, got, eng.Now())
		}
	}
}

// TestEngineClocksEqualBetweenWindows pins the contract globals rely on:
// every domain clock — busy or idle for many windows — equals Engine.Now()
// inside every global and after every Run return.
func TestEngineClocksEqualBetweenWindows(t *testing.T) {
	m := buildRing(17, 7, 6) // domain 6 has no chain of its own: only the ring's posts land there
	eng := m.eng
	globals := 0
	for at := Time(0); at <= 300*Microsecond; at += 7 * Microsecond {
		eng.GlobalAt(at, func() {
			globals++
			checkClocks(t, eng, fmt.Sprintf("global at %v", at))
		})
	}
	for _, until := range []Time{3 * Microsecond, 50 * Microsecond, 51 * Microsecond, 400 * Microsecond, Millisecond} {
		eng.Run(until)
		if eng.Now() != until {
			t.Fatalf("Run(%v) returned at %v", until, eng.Now())
		}
		checkClocks(t, eng, fmt.Sprintf("after Run(%v)", until))
	}
	if globals != 43 || eng.Pending() != 0 {
		t.Fatalf("ran %d globals (want 43), %d events left", globals, eng.Pending())
	}
}

// clocks renders every domain clock, in domain order.
func clocks(eng *Engine) string {
	var b strings.Builder
	for i := 0; i < eng.NumDomains(); i++ {
		fmt.Fprintf(&b, " %d", eng.Domain(i).Now())
	}
	return b.String()
}

// TestEngineFireOrderPinned pins the whole observable schedule of a mostly
// idle engine: 72 domains, 4 of them booted with ring chains, so most
// domains sit idle for long stretches until a post or a global wakes them.
// Globals start chains on idle domains and log every domain clock; an event
// on an otherwise idle domain calls Stop; later Run calls resume. The digest
// covers the firing order across domains (with clocks and RNG draws), every
// global's clock readings and the state after each Run.
func TestEngineFireOrderPinned(t *testing.T) {
	const (
		us         = Microsecond
		wantSHA    = "fb60a61720403b01e2d9c7932f8a253c0285bdbd567fc56f1863da21e897d585"
		wantEvents = 42869
	)
	m := buildRing(31, 72, 4)
	eng := m.eng
	for i := 0; i < 24; i++ {
		i, d := i, eng.Domain((11+7*i)%72)
		eng.GlobalAt(Time(i)*13*us, func() {
			m.all = append(m.all, fmt.Sprintf("g%d@%d clocks%s", i, eng.Now(), clocks(eng)))
			m.start(d, fmt.Sprintf("g%d", i))
		})
	}
	stopper := eng.Domain(50)
	stopper.At(150*us+300, func() {
		m.all = append(m.all, fmt.Sprintf("stop@%d", stopper.Now()))
		stopper.Stop()
	})
	for _, until := range []Time{40 * us, Millisecond, Millisecond, 3 * Millisecond} {
		eng.Run(until)
		m.all = append(m.all, fmt.Sprintf("run(%d): now=%d processed=%d pending=%d clocks%s",
			until, eng.Now(), eng.Processed(), eng.Pending(), clocks(eng)))
	}
	sum := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(m.all, "\n"))))
	if eng.Processed() != wantEvents || sum != wantSHA {
		t.Fatalf("processed %d events, log sha256 %s; want %d, %s", eng.Processed(), sum, wantEvents, wantSHA)
	}
}

// TestEngineGlobalSchedulesEarlierEvent: a global may schedule a domain event
// earlier than anything pending, on a domain idle until then. The next window
// must be bounded by that event (tmin is recomputed after globals), so the
// message it posts lands on time, before the far-off pending event.
func TestEngineGlobalSchedulesEarlierEvent(t *testing.T) {
	const us = Microsecond
	eng := NewEngine(19, 2*us, 2)
	d0, d1 := eng.Domain(0), eng.Domain(1)
	var order []string
	d0.At(100*us, func() { order = append(order, fmt.Sprintf("d0 far @%v", d0.Now())) })
	eng.GlobalAt(10*us, func() {
		d1.At(12*us, func() {
			order = append(order, fmt.Sprintf("d1 @%v", d1.Now()))
			d1.Post(0, 14*us, func(any, any) { order = append(order, fmt.Sprintf("d0 post @%v", d0.Now())) }, nil, nil)
		})
	})
	eng.Run(Millisecond)
	want := []string{"d1 @12µs", "d0 post @14µs", "d0 far @100µs"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %q, want %q", order, want)
	}
}

// TestEnginePostIntoLongIdleDomain: a message into a domain that has had
// nothing to do for many windows fires at its own timestamp.
func TestEnginePostIntoLongIdleDomain(t *testing.T) {
	const us = Microsecond
	eng := NewEngine(23, us, 2)
	busy, idle := eng.Domain(0), eng.Domain(1)
	var tick func()
	ticks := 0
	tick = func() {
		if ticks++; ticks == 50 {
			busy.Post(1, busy.Now()+3*us/2, func(any, any) {
				if idle.Now() != 51*us+us/2 {
					t.Errorf("post fired at %v, want 51.5µs", idle.Now())
				}
				ticks = -1
			}, nil, nil)
			return
		}
		busy.After(us, tick)
	}
	busy.At(us, tick)
	eng.Run(Millisecond)
	if ticks != -1 {
		t.Fatalf("post into the idle domain never fired (ticks = %d)", ticks)
	}
}

// TestEngineResumableRun: Run may be called repeatedly with increasing
// deadlines; clocks and pending work carry over. Everything at or before a
// deadline fires before Run returns, including a message posted one
// lookahead earlier that lands exactly on it.
func TestEngineResumableRun(t *testing.T) {
	eng := NewEngine(13, Microsecond, 2)
	d := eng.Domain(0)
	var at []Time
	for i := 1; i <= 4; i++ {
		i := i
		d.At(Time(i)*10*Microsecond, func() { at = append(at, d.Now()) })
	}
	landed := false
	d.At(14*Microsecond, func() { d.Post(0, 15*Microsecond, func(any, any) { landed = true }, nil, nil) })
	eng.Run(15 * Microsecond)
	if len(at) != 1 || !landed {
		t.Fatalf("before the first deadline: fired %d events (want 1), message on the deadline fired = %v", len(at), landed)
	}
	if eng.Now() != 15*Microsecond {
		t.Fatalf("Now() = %v, want 15µs", eng.Now())
	}
	eng.Run(Millisecond)
	if len(at) != 4 {
		t.Fatalf("fired %d events total, want 4", len(at))
	}
}

// program is the clock surface a randomized event program drives: a
// Simulator's own scheduling plus the global and run forms, bound either to
// a bare Simulator or to a one-domain engine.
type program struct {
	s           *Simulator
	globalAt    func(Time, func())
	globalAfter func(Time, func())
	run         func(Time)
	now         func() Time
	processed   func() uint64
	pending     func() int
}

// runProgram seeds a few events, then lets every fired event log its tag,
// time and an RNG draw and use the RNG to schedule more — through At, After,
// GlobalAt and GlobalAfter, on a coarse grid so same-timestamp ties are
// common — or to cancel an earlier one. The 300th event calls Stop; the
// program resumes twice, and the log records the clock and queue counts
// after every run.
func runProgram(p program) []string {
	var log []string
	var ids []EventID
	fired, tags := 0, 0
	var spawn func(kind int, gap Time)
	step := func(tag string) func() {
		return func() {
			fired++
			rng := p.s.Rand()
			log = append(log, fmt.Sprintf("%s@%v r%d", tag, p.now(), rng.Intn(1000)))
			if fired == 300 {
				p.s.Stop()
			}
			if fired > 1500 {
				return
			}
			for k := 1 + rng.Intn(3); k > 0; k-- {
				spawn(rng.Intn(5), Time(rng.Intn(4))*Microsecond)
			}
		}
	}
	spawn = func(kind int, gap Time) {
		tags++
		tag := fmt.Sprintf("%c%d", "aAgGc"[kind], tags)
		switch kind {
		case 0:
			ids = append(ids, p.s.At(p.now()+gap, step(tag)))
		case 1:
			ids = append(ids, p.s.After(gap, step(tag)))
		case 2:
			p.globalAt(p.now()+gap, step(tag))
		case 3:
			p.globalAfter(gap, step(tag))
		case 4:
			if len(ids) > 0 {
				id := ids[p.s.Rand().Intn(len(ids))]
				log = append(log, fmt.Sprintf("%s cancel=%v", tag, p.s.Cancel(id)))
			}
		}
	}
	for kind := 0; kind < 4; kind++ {
		spawn(kind, Microsecond)
	}
	for _, until := range []Time{Microsecond, Second, Second, 2 * Second} {
		p.run(until)
		log = append(log, fmt.Sprintf("run(%v): now=%v processed=%d pending=%d", until, p.now(), p.processed(), p.pending()))
	}
	return log
}

// TestOneDomainEngineIsASimulator is the one-domain rule: NewEngine(s, la, 1)
// behaves exactly as New(s) driven the way a single-Simulator cluster drove
// it — a control action at t is After(t-Now), Run(until) is RunUntil(until)
// — down to RNG draws, same-timestamp order, Cancel results, the Stop point,
// clocks and queue counts.
func TestOneDomainEngineIsASimulator(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		s := New(seed)
		ref := runProgram(program{
			s:           s,
			globalAt:    func(at Time, fn func()) { s.After(at-s.Now(), fn) },
			globalAfter: func(d Time, fn func()) { s.After(d, fn) },
			run:         s.RunUntil,
			now:         s.Now,
			processed:   s.Processed,
			pending:     s.Pending,
		})
		eng := NewEngine(seed, Microsecond, 1)
		got := runProgram(program{
			s:           eng.Domain(0).Simulator,
			globalAt:    eng.GlobalAt,
			globalAfter: eng.GlobalAfter,
			run:         eng.Run,
			now:         eng.Now,
			processed:   eng.Processed,
			pending:     eng.Pending,
		})
		if len(ref) < 1500 {
			t.Fatalf("seed %d: reference program logged only %d lines", seed, len(ref))
		}
		if !reflect.DeepEqual(got, ref) {
			for i := range ref {
				if i >= len(got) || got[i] != ref[i] {
					t.Fatalf("seed %d: line %d: engine %q, simulator %q", seed, i, got[min(i, len(got)-1)], ref[i])
				}
			}
			t.Fatalf("seed %d: engine logged %d lines, simulator %d", seed, len(got), len(ref))
		}
	}
}
