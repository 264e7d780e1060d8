// Package lifecycle is a small component manager for operated services: an
// ordered set of named components brought up with Init then Start and torn
// down with Stop in reverse order, each call bounded by a per-phase timeout,
// with Stop errors aggregated so one failing component never hides another.
//
// It is the k0s-style manager/component idiom scaled to this repo's needs:
// cmd/cloved registers its tunnel endpoints, admin server, tickers, and
// stdin reader as components, and the manager gives it deterministic
// bring-up order, reverse-order graceful drain, and idempotent shutdown
// (ROADMAP item 5).
//
// Contract:
//
//   - Init is called on every component in registration order; the first
//     error aborts (already-inited components are NOT stopped — Init must
//     not acquire resources that need teardown; that is Start's job).
//   - Start is called in registration order; on error, components that
//     already started are stopped in reverse order before Start returns.
//   - Stop stops started components in reverse registration order,
//     continues past errors, and returns them joined. Stop is idempotent:
//     second and later calls return the first call's result without
//     touching the components again.
//   - A phase timeout expiring produces an error naming the component and
//     phase; the offending call keeps running on its goroutine (the
//     manager cannot kill it) but the manager moves on so shutdown cannot
//     hang forever on one stuck component.
package lifecycle

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Component is the unit of managed lifecycle. Implementations must tolerate
// Stop without a preceding Start (the manager only stops what it started,
// but defensive components are easier to reuse).
type Component interface {
	// Init prepares the component (validate config, allocate state). It
	// must not begin background activity.
	Init(ctx context.Context) error
	// Start begins the component's work (bind, serve, spawn goroutines).
	Start(ctx context.Context) error
	// Stop halts the component and releases what Start acquired. It must
	// be safe to call exactly once after a successful Start.
	Stop() error
}

// DefaultTimeout bounds each component's Init/Start/Stop call when the
// corresponding Manager field is zero.
const DefaultTimeout = 30 * time.Second

type entry struct {
	name string
	comp Component
}

// Manager owns an ordered list of components. Not safe for concurrent Add;
// Init/Start/Stop are mutually serialized.
type Manager struct {
	// InitTimeout, StartTimeout and StopTimeout bound each individual
	// component call in the respective phase. Zero means DefaultTimeout;
	// negative means no bound.
	InitTimeout  time.Duration
	StartTimeout time.Duration
	StopTimeout  time.Duration

	mu       sync.Mutex
	comps    []entry
	startedN int // components successfully started, a prefix of comps
	stopped  bool
	stopErr  error
}

// New returns an empty manager with default timeouts.
func New() *Manager { return &Manager{} }

// Add registers a component under name. Registration order is bring-up
// order and reverse teardown order.
func (m *Manager) Add(name string, c Component) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.comps = append(m.comps, entry{name: name, comp: c})
}

// Init initializes every component in order; the first error aborts.
func (m *Manager) Init(ctx context.Context) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.comps {
		if err := m.call(ctx, "init", e.name, m.InitTimeout, e.comp.Init); err != nil {
			return err
		}
	}
	return nil
}

// Start starts every component in order. On error, the components already
// started are stopped in reverse order and the Start error is returned
// (joined with any Stop errors from the rollback).
func (m *Manager) Start(ctx context.Context) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.comps {
		if err := m.call(ctx, "start", e.name, m.StartTimeout, e.comp.Start); err != nil {
			return errors.Join(err, m.stopLocked())
		}
		m.startedN++
	}
	return nil
}

// Stop stops the started components in reverse order, aggregating errors.
// Idempotent: later calls return the first result.
func (m *Manager) Stop() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return m.stopErr
	}
	m.stopped = true
	m.stopErr = m.stopLocked()
	return m.stopErr
}

// stopLocked tears down comps[:startedN] in reverse order. Caller holds mu.
func (m *Manager) stopLocked() error {
	var errs []error
	for i := m.startedN - 1; i >= 0; i-- {
		e := m.comps[i]
		stop := func(context.Context) error { return e.comp.Stop() }
		if err := m.call(context.Background(), "stop", e.name, m.StopTimeout, stop); err != nil {
			errs = append(errs, err)
		}
	}
	m.startedN = 0
	return errors.Join(errs...)
}

// call runs one phase function under the phase timeout. ctx carries the
// deadline to cooperative components; the select enforces it on
// uncooperative ones (whose goroutine then outlives the call — documented
// at the package level).
func (m *Manager) call(ctx context.Context, phase, name string, d time.Duration, fn func(context.Context) error) error {
	if d == 0 {
		d = DefaultTimeout
	}
	if d < 0 {
		if err := fn(ctx); err != nil {
			return fmt.Errorf("lifecycle: %s %s: %w", phase, name, err)
		}
		return nil
	}
	cctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- fn(cctx) }()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("lifecycle: %s %s: %w", phase, name, err)
		}
		return nil
	case <-t.C:
		return fmt.Errorf("lifecycle: %s %s: timed out after %v", phase, name, d)
	}
}
