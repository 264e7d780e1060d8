package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// ringModel is a small multi-domain workload used by the determinism tests:
// every domain runs a local event chain with RNG-jittered gaps, and every
// few events posts a message to the next domain in the ring with an
// RNG-jittered cross-domain delay (always >= lookahead). Each fired event
// appends a record to its domain's log.
type ringModel struct {
	eng  *Engine
	logs [][]string
}

const ringLookahead = 5 * Microsecond

func buildRing(seed int64, nDomains int) *ringModel {
	eng := NewEngine(seed, ringLookahead)
	m := &ringModel{eng: eng, logs: make([][]string, nDomains)}
	for i := 0; i < nDomains; i++ {
		d := eng.AddDomain()
		m.start(d, fmt.Sprintf("boot%d", i))
	}
	return m
}

func (m *ringModel) start(d *Domain, tag string) {
	d.After(Time(d.Rand().Int63n(int64(Microsecond))), func() { m.step(d, tag, 0) })
}

func (m *ringModel) step(d *Domain, tag string, n int) {
	m.logs[d.ID()] = append(m.logs[d.ID()],
		fmt.Sprintf("%s#%d@%d r%d", tag, n, d.Now(), d.Rand().Int63n(1000)))
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
	m.eng.Run(until, nil)
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
	ref := buildRing(42, 6).run(until)
	if len(ref) == 0 {
		t.Fatal("reference run produced no events")
	}
	if got := buildRing(42, 6).run(until); !reflect.DeepEqual(got, ref) {
		t.Fatalf("second run's log diverges from the first (len %d vs %d)", len(got), len(ref))
	}
}

// TestEngineSeedSensitivity guards against the domains accidentally sharing
// one RNG stream: a different engine seed must change the log.
func TestEngineSeedSensitivity(t *testing.T) {
	const until = 500 * Microsecond
	a := buildRing(1, 4).run(until)
	b := buildRing(2, 4).run(until)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds produced identical logs")
	}
}

// TestEnginePostUnderLookaheadPanics pins the conservative-sync contract:
// posting a cross-domain message closer than the lookahead is a bug in the
// model and must fail loudly at the source.
func TestEnginePostUnderLookaheadPanics(t *testing.T) {
	eng := NewEngine(7, 10*Microsecond)
	d0 := eng.AddDomain()
	eng.AddDomain()
	d0.At(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("post under lookahead did not panic")
			}
		}()
		d0.Post(1, d0.Now()+9*Microsecond, func(any, any) {}, nil, nil)
	})
	eng.Run(Microsecond, nil)
}

// TestEngineZeroLookaheadPanics: a zero or negative lookahead would allow
// same-instant cross-domain causality and deadlock the window computation.
func TestEngineZeroLookaheadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewEngine(lookahead=0) did not panic")
		}
	}()
	NewEngine(1, 0)
}

// TestEngineGlobalsRunAtBarriers pins the ordering contract for control
// events: all domain events with timestamps <= t fire before a global at t,
// and globals at the same time run in scheduling order (including ones they
// enqueue themselves) — also when t is the deadline itself.
func TestEngineGlobalsRunAtBarriers(t *testing.T) {
	eng := NewEngine(3, 2*Microsecond)
	d0 := eng.AddDomain()
	d1 := eng.AddDomain()
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
	eng.Run(10*Microsecond, nil) // deadline == global time == an event's time
	if !reflect.DeepEqual(order, want[:6]) || eng.Now() != 10*Microsecond || eng.Pending() != 1 {
		t.Fatalf("at the 10µs deadline: order = %v, Now() = %v, Pending() = %d", order, eng.Now(), eng.Pending())
	}
	eng.Run(20*Microsecond, nil)
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
	eng := NewEngine(5, us)
	var doms []*Domain
	for i := 0; i < 4; i++ {
		doms = append(doms, eng.AddDomain())
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
	eng.Run(10*us, nil)
	want := [2][]string{
		{"s1#0", "s1#1", "s2#3", "s3#0", "s3#1", "s2#1", "s3#4"},
		{"s2#0", "s2#2", "s3#3", "s1#2", "s3#2"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("arrival order = %v, want %v", got, want)
	}
}

// TestEngineStopAtBarrier: the stop predicate is honored at a barrier and
// leaves the engine in a resumable state.
func TestEngineStopAtBarrier(t *testing.T) {
	eng := NewEngine(9, Microsecond)
	d := eng.AddDomain()
	var fired int
	var tick func()
	tick = func() {
		fired++
		d.After(Microsecond, tick)
	}
	d.After(Microsecond, tick)
	eng.Run(Second, func() bool { return fired >= 10 })
	if fired < 10 || fired > 12 {
		t.Fatalf("fired = %d, want ~10 (stop checked at barriers)", fired)
	}
	if eng.Now() >= Second {
		t.Fatalf("engine ran to deadline despite stop (now=%v)", eng.Now())
	}
}

// TestEngineProcessedPending sanity-checks the aggregate accounting.
func TestEngineProcessedPending(t *testing.T) {
	eng := NewEngine(11, Microsecond)
	d0 := eng.AddDomain()
	d1 := eng.AddDomain()
	d0.At(Microsecond, func() {})
	d1.At(Microsecond, func() {})
	d1.At(2*Microsecond, func() {})
	eng.GlobalAt(3*Microsecond, func() {})
	if eng.Pending() != 4 {
		t.Fatalf("Pending() = %d, want 4", eng.Pending())
	}
	eng.Run(Millisecond, nil)
	if eng.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", eng.Pending())
	}
	if eng.Processed() != 3 {
		t.Fatalf("Processed() = %d, want 3", eng.Processed())
	}
}

// TestEngineResumableRun: Run may be called repeatedly with increasing
// deadlines; clocks and pending work carry over. Everything at or before a
// deadline fires before Run returns, including a message posted one
// lookahead earlier that lands exactly on it.
func TestEngineResumableRun(t *testing.T) {
	eng := NewEngine(13, Microsecond)
	d := eng.AddDomain()
	var at []Time
	for i := 1; i <= 4; i++ {
		i := i
		d.At(Time(i)*10*Microsecond, func() { at = append(at, d.Now()) })
	}
	landed := false
	d.At(14*Microsecond, func() { d.Post(0, 15*Microsecond, func(any, any) { landed = true }, nil, nil) })
	eng.Run(15*Microsecond, nil)
	if len(at) != 1 || !landed {
		t.Fatalf("before the first deadline: fired %d events (want 1), message on the deadline fired = %v", len(at), landed)
	}
	if eng.Now() != 15*Microsecond {
		t.Fatalf("Now() = %v, want 15µs", eng.Now())
	}
	eng.Run(Millisecond, nil)
	if len(at) != 4 {
		t.Fatalf("fired %d events total, want 4", len(at))
	}
}
