// Package telemetry is the opt-in metrics and tracing subsystem. It has two
// halves:
//
//   - A counter/gauge Registry. Components resolve typed handles by name at
//     wiring time (SetTrace on a link, a sender, a vswitch); the hot path
//     then touches only the handle pointer — no map lookup, no interface
//     dispatch. Handles are nil-safe: with telemetry disabled every handle
//     is nil and an increment is a single predictable branch, the same
//     disabled-cost contract as packet.Observer (see internal/oracle).
//
//   - A time-series Tracer recording sampled streams — link queue occupancy
//     and ECN marks, per-destination path weights and congestion ages, TCP
//     cwnd/ssthresh/RTO and retransmit events, flowlet sizes and inter-gap
//     times, per-job FCTs, and event-engine load — into bounded per-stream
//     ring buffers, exported as JSONL and CSV.
//
// Everything is deterministic: records carry only simulated time, streams
// are appended in event order, and export formats numbers with strconv, so
// a trace directory is byte-identical for the same seed at any -j.
package telemetry

import "sort"

// Counter is a monotonically increasing run-level metric. The zero handle
// (nil) is the disabled state: Add and Inc are no-ops costing one nil check.
type Counter struct {
	name string
	v    int64
}

// Add increments the counter by n. Safe on a nil (disabled) handle.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v += n
}

// Inc increments the counter by one. Safe on a nil (disabled) handle.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Name returns the registry name ("" on a nil handle).
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Gauge is a last-value-wins run-level metric.
type Gauge struct {
	name string
	v    float64
}

// Set records the gauge value. Safe on a nil (disabled) handle.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
}

// Value returns the last set value (0 on a nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Name returns the registry name ("" on a nil handle).
func (g *Gauge) Name() string {
	if g == nil {
		return ""
	}
	return g.name
}

// Registry owns the named counters and gauges of one run. Lookup happens at
// wiring time only; the same name always resolves to the same handle, so
// components sharing a name (every link's ECN-mark counter, say) aggregate
// into one metric.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// Counter resolves (creating on first use) the counter named name.
func (r *Registry) Counter(name string) *Counter {
	if r.counters == nil {
		r.counters = map[string]*Counter{}
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge resolves (creating on first use) the gauge named name.
func (r *Registry) Gauge(name string) *Gauge {
	if r.gauges == nil {
		r.gauges = map[string]*Gauge{}
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// VisitSorted calls the callbacks for every counter and gauge in ascending
// name order (export and tests; the order makes output deterministic).
func (r *Registry) VisitSorted(counter func(*Counter), gauge func(*Gauge)) {
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		counter(r.counters[n])
	}
	names = names[:0]
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		gauge(r.gauges[n])
	}
}
