package netem

import "clove/internal/sim"

// DRE (Discounting Rate Estimator) tracks the utilization of a link egress
// the way CONGA's switches do: a register X accumulates transmitted bytes
// and decays multiplicatively every Tdre, so that X/(C·Tdre/α) approximates
// the recent utilization with a time constant of Tdre/α.
//
// The same estimator feeds Clove-INT's and Charon's per-hop utilization
// stamps and CONGA's congestion metrics; a link keeps one only where those
// run (Topology.TrackUtilization, turned on at build time by conga.Attach,
// Switch.SetLoadStamp and the Clove-INT cluster).
type DRE struct {
	sim       *sim.Simulator
	x         float64 // discounted byte counter
	alpha     float64
	tdre      sim.Time
	rateBps   int64
	lastDecay sim.Time
}

// DRE defaults chosen to match CONGA's published configuration scaled to
// datacenter RTTs: decay interval well under an RTT, smoothing factor 1/8.
const (
	DefaultDREAlpha    = 0.125
	DefaultDREInterval = 20 * sim.Microsecond
)

// NewDRE creates an estimator for a link of the given rate. Decay is applied
// lazily on read/write rather than with a ticker, so idle links cost nothing,
// and a read or write less than one Tdre after the last decay skips it.
func NewDRE(s *sim.Simulator, rateBps int64) *DRE {
	return &DRE{sim: s, alpha: DefaultDREAlpha, tdre: DefaultDREInterval, rateBps: rateBps}
}

// decayTo applies the multiplicative decay for every whole Tdre elapsed.
func (d *DRE) decayTo(now sim.Time) {
	if now-d.lastDecay < d.tdre {
		return
	}
	steps := int64(now-d.lastDecay) / int64(d.tdre)
	if steps > 64 {
		// Long idle: the register has fully decayed.
		d.x = 0
	} else {
		for i := int64(0); i < steps; i++ {
			d.x *= 1 - d.alpha
		}
	}
	d.lastDecay += sim.Time(steps) * d.tdre
}

// SetRate rebases the estimator on a new link capacity. The discounted byte
// register is kept: utilization readings immediately renormalize against the
// new rate, which is exactly what a downgraded link should report (the same
// traffic is now a larger fraction of capacity).
func (d *DRE) SetRate(rateBps int64) { d.rateBps = rateBps }

// Add records size bytes transmitted now.
func (d *DRE) Add(size int) {
	d.decayTo(d.sim.Now())
	d.x += float64(size)
}

// Utilization returns the estimated egress utilization; 1.0 means the link
// has been sending at line rate over the estimator's time constant.
func (d *DRE) Utilization() float64 {
	d.decayTo(d.sim.Now())
	// Steady state at line rate: X -> C * Tdre / alpha (in bytes).
	full := float64(d.rateBps) / 8 * d.tdre.Seconds() / d.alpha
	if full <= 0 {
		return 0
	}
	return d.x / full
}
