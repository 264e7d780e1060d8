package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeConversions(t *testing.T) {
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v, want 1.5ms*1000", got)
	}
	if got := FromDuration(2 * time.Millisecond); got != 2*Millisecond {
		t.Errorf("FromDuration(2ms) = %v", got)
	}
	if got := (250 * Millisecond).Seconds(); got != 0.25 {
		t.Errorf("Seconds = %v, want 0.25", got)
	}
	if s := (1500 * Microsecond).String(); s != "1.5ms" {
		t.Errorf("String = %q, want 1.5ms", s)
	}
}

func TestTransmissionTime(t *testing.T) {
	// 1500 bytes at 10 Gbps = 1.2 us.
	if got := TransmissionTime(1500, 10_000_000_000); got != 1200*Nanosecond {
		t.Errorf("TransmissionTime = %v, want 1.2us", got)
	}
	// 1 byte at 8 bps = 1 s.
	if got := TransmissionTime(1, 8); got != Second {
		t.Errorf("TransmissionTime = %v, want 1s", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("TransmissionTime with zero rate did not panic")
		}
	}()
	TransmissionTime(1, 0)
}

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("events fired in order %v, want [1 2 3]", got)
	}
	if s.Now() != 30 {
		t.Errorf("Now = %v, want 30", s.Now())
	}
}

func TestFIFOAmongEqualTimestamps(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-timestamp events fired out of order at %d: %v", i, v)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
}

// TestLanePanics: a lane with a negative delay or no callback, and a lane
// event whose time would overflow Time, are bugs and panic, as AfterCall does.
func noopLane(_, _ *struct{}) {}

func TestLanePanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	s := New(1)
	mustPanic("LaneFor(-1)", func() { LaneFor(s, -1, noopLane) })
	mustPanic("LaneFor(nil)", func() { LaneFor[int, int](s, 1, nil) })
	far := LaneFor(s, math.MaxInt64, noopLane)
	s.At(1, func() { mustPanic("Call past the largest Time", func() { far.Call(nil, nil) }) })
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d after a refused lane event, want 0", s.Pending())
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	s := New(1)
	var times []Time
	s.After(10, func() {
		times = append(times, s.Now())
		s.After(15, func() { times = append(times, s.Now()) })
	})
	s.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 25 {
		t.Errorf("nested times = %v, want [10 25]", times)
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	id := s.At(10, func() { fired = true })
	if !s.Cancel(id) {
		t.Error("Cancel returned false for pending event")
	}
	if s.Cancel(id) {
		t.Error("double Cancel returned true")
	}
	s.Run()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := New(1)
	var got []int
	var ids []EventID
	for i := 0; i < 10; i++ {
		i := i
		ids = append(ids, s.At(Time(i*10), func() { got = append(got, i) }))
	}
	s.Cancel(ids[3])
	s.Cancel(ids[7])
	s.Run()
	want := []int{0, 1, 2, 4, 5, 6, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestCancelFiredEventIsNoop(t *testing.T) {
	s := New(1)
	id := s.At(1, func() {})
	s.Run()
	if s.Cancel(id) {
		t.Error("Cancel returned true for already-fired event")
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.RunUntil(12)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 5,10", fired)
	}
	if s.Now() != 12 {
		t.Errorf("Now = %v, want 12 after RunUntil", s.Now())
	}
	if s.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", s.Pending())
	}
	s.Run()
	if len(fired) != 4 || s.Now() != 20 {
		t.Errorf("after Run: fired=%v now=%v", fired, s.Now())
	}
}

func TestStop(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(Time(i), func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Errorf("count = %d, want 3 after Stop", count)
	}
	if s.Pending() != 7 {
		t.Errorf("Pending = %d, want 7", s.Pending())
	}
}

func TestRunForEvents(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(Time(i), func() { count++ })
	}
	s.RunForEvents(4)
	if count != 4 {
		t.Errorf("count = %d, want 4", count)
	}
}

func TestTicker(t *testing.T) {
	s := New(1)
	var ticks []Time
	var cancel func()
	cancel = s.Ticker(10, func() {
		ticks = append(ticks, s.Now())
		if len(ticks) == 5 {
			cancel()
		}
	})
	s.RunUntil(1000)
	if len(ticks) != 5 {
		t.Fatalf("ticks = %v, want 5 ticks", ticks)
	}
	for i, at := range ticks {
		if at != Time((i+1)*10) {
			t.Errorf("tick %d at %v, want %v", i, at, Time((i+1)*10))
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		s := New(seed)
		var trace []int64
		var spawn func(depth int)
		spawn = func(depth int) {
			if depth > 6 {
				return
			}
			delay := Time(s.Rand().Intn(100) + 1)
			s.After(delay, func() {
				trace = append(trace, int64(s.Now()))
				spawn(depth + 1)
				if s.Rand().Intn(2) == 0 {
					spawn(depth + 1)
				}
			})
		}
		spawn(0)
		spawn(0)
		s.Run()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("non-deterministic trace length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical traces; RNG unused?")
	}
}

// Property: popping events always yields non-decreasing timestamps, for any
// random insertion order.
func TestQuickMonotonePop(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		s := New(7)
		var fired []Time
		for _, r := range raw {
			at := Time(r % 100000)
			s.At(at, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		return len(fired) == len(raw)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
