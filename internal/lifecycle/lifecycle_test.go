package lifecycle

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// recorder is a Component that appends phase markers to a shared log. A
// non-nil gate makes that phase block until the gate is closed.
type recorder struct {
	name      string
	log       *eventLog
	initErr   error
	startErr  error
	stopErr   error
	startGate chan struct{}
	stopGate  chan struct{}
	stops     atomic.Int64
}

type eventLog struct {
	mu     sync.Mutex
	events []string
}

func (l *eventLog) add(s string) {
	l.mu.Lock()
	l.events = append(l.events, s)
	l.mu.Unlock()
}

func (l *eventLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.events...)
}

func (r *recorder) Init(context.Context) error {
	r.log.add("init:" + r.name)
	return r.initErr
}

func (r *recorder) Start(context.Context) error {
	r.log.add("start:" + r.name)
	if r.startGate != nil {
		<-r.startGate
	}
	return r.startErr
}

func (r *recorder) Stop() error {
	r.stops.Add(1)
	r.log.add("stop:" + r.name)
	if r.stopGate != nil {
		<-r.stopGate
	}
	return r.stopErr
}

func join(ss []string) string { return strings.Join(ss, " ") }

func TestOrderedInitStartReverseStop(t *testing.T) {
	log := &eventLog{}
	m := New()
	a := &recorder{name: "a", log: log}
	b := &recorder{name: "b", log: log}
	c := &recorder{name: "c", log: log}
	m.Add("a", a)
	m.Add("b", b)
	m.Add("c", c)
	ctx := context.Background()
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.Stop(); err != nil {
		t.Fatal(err)
	}
	want := "init:a init:b init:c start:a start:b start:c stop:c stop:b stop:a"
	if got := join(log.snapshot()); got != want {
		t.Errorf("sequence = %q, want %q", got, want)
	}
}

func TestInitFirstErrorAborts(t *testing.T) {
	log := &eventLog{}
	m := New()
	m.Add("a", &recorder{name: "a", log: log})
	m.Add("b", &recorder{name: "b", log: log, initErr: errors.New("boom")})
	m.Add("c", &recorder{name: "c", log: log})
	err := m.Init(context.Background())
	if err == nil || !strings.Contains(err.Error(), "init b") {
		t.Fatalf("err = %v, want init b failure", err)
	}
	if got := join(log.snapshot()); got != "init:a init:b" {
		t.Errorf("sequence = %q: init continued past the failure", got)
	}
}

func TestStartFailureRollsBackStartedPrefix(t *testing.T) {
	log := &eventLog{}
	m := New()
	a := &recorder{name: "a", log: log}
	b := &recorder{name: "b", log: log}
	c := &recorder{name: "c", log: log, startErr: errors.New("bind failed")}
	d := &recorder{name: "d", log: log}
	for _, e := range []*recorder{a, b, c, d} {
		m.Add(e.name, e)
	}
	err := m.Start(context.Background())
	if err == nil || !strings.Contains(err.Error(), "start c") {
		t.Fatalf("err = %v, want start c failure", err)
	}
	want := "start:a start:b start:c stop:b stop:a"
	if got := join(log.snapshot()); got != want {
		t.Errorf("sequence = %q, want %q (reverse rollback, d never started, c not stopped)", got, want)
	}
}

func TestStopAggregatesErrorsAndContinues(t *testing.T) {
	log := &eventLog{}
	m := New()
	a := &recorder{name: "a", log: log, stopErr: errors.New("a-stop-err")}
	b := &recorder{name: "b", log: log, stopErr: errors.New("b-stop-err")}
	c := &recorder{name: "c", log: log}
	for _, e := range []*recorder{a, b, c} {
		m.Add(e.name, e)
	}
	ctx := context.Background()
	if err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	err := m.Stop()
	if err == nil {
		t.Fatal("stop errors swallowed")
	}
	for _, want := range []string{"a-stop-err", "b-stop-err"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregated error %q missing %q", err, want)
		}
	}
	// Every component was still stopped despite the earlier errors.
	if got := join(log.snapshot()); !strings.HasSuffix(got, "stop:c stop:b stop:a") {
		t.Errorf("sequence = %q: stop did not continue past errors", got)
	}
}

func TestDoubleStopIdempotent(t *testing.T) {
	log := &eventLog{}
	m := New()
	a := &recorder{name: "a", log: log, stopErr: errors.New("sticky")}
	m.Add("a", a)
	if err := m.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	err1 := m.Stop()
	err2 := m.Stop()
	if a.stops.Load() != 1 {
		t.Errorf("component stopped %d times, want 1", a.stops.Load())
	}
	if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
		t.Errorf("second Stop result %v differs from first %v", err2, err1)
	}
}

func TestStopTimeoutNamesComponentAndMovesOn(t *testing.T) {
	log := &eventLog{}
	m := New()
	m.StopTimeout = 50 * time.Millisecond
	release := make(chan struct{})
	stuck := &recorder{name: "stuck", log: log, stopGate: release}
	a := &recorder{name: "a", log: log}
	m.Add("a", a)
	m.Add("stuck", stuck)
	if err := m.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := m.Stop()
	close(release)
	if err == nil || !strings.Contains(err.Error(), "stop stuck: timed out") {
		t.Fatalf("err = %v, want stop stuck timeout", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("stop blocked %v on a stuck component", el)
	}
	// The stuck component did not prevent the earlier component's stop.
	if a.stops.Load() != 1 {
		t.Error("component behind the stuck one was never stopped")
	}
}

func TestStartTimeout(t *testing.T) {
	m := New()
	m.StartTimeout = 50 * time.Millisecond
	release := make(chan struct{})
	defer close(release)
	m.Add("slow", &recorder{name: "slow", log: &eventLog{}, startGate: release})
	err := m.Start(context.Background())
	if err == nil || !strings.Contains(err.Error(), "start slow: timed out") {
		t.Fatalf("err = %v, want start timeout", err)
	}
}

func TestTickerTicksAndStops(t *testing.T) {
	var ticks atomic.Int64
	tk := &Ticker{Interval: 5 * time.Millisecond, Tick: func() { ticks.Add(1) }}
	if err := tk.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := tk.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for ticks.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ticks.Load() < 3 {
		t.Fatal("ticker never ticked")
	}
	if err := tk.Stop(); err != nil {
		t.Fatal(err)
	}
	n := ticks.Load()
	time.Sleep(25 * time.Millisecond)
	if m := ticks.Load(); m != n {
		t.Errorf("ticker ticked after Stop (%d -> %d)", n, m)
	}
	if err := tk.Stop(); err != nil { // double stop
		t.Fatal(err)
	}
}

func TestTickerStopBeforeStart(t *testing.T) {
	tk := &Ticker{Interval: time.Millisecond, Tick: func() {}}
	if err := tk.Stop(); err != nil { // never inited
		t.Fatal(err)
	}
	if err := tk.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := tk.Stop(); err != nil { // inited, never started
		t.Fatal(err)
	}
}

func TestTickerRejectsBadConfig(t *testing.T) {
	if err := (&Ticker{Interval: 0, Tick: func() {}}).Init(context.Background()); err == nil {
		t.Error("zero interval accepted")
	}
	if err := (&Ticker{Interval: time.Second}).Init(context.Background()); err == nil {
		t.Error("nil tick accepted")
	}
}
