// Package workload describes the traffic the paper evaluates with: flow
// sizes drawn from an empirical web-search distribution (heavy-tailed, most
// flows small, most bytes in a few large flows) and the Poisson arrival
// rate that offers a target network load. The arrival chains themselves,
// and the incast partition–aggregate pattern of Sec. 5.3, are driven by
// internal/cluster.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// CDFPoint anchors an empirical flow-size CDF: P(size <= Bytes) = Prob.
type CDFPoint struct {
	Bytes float64
	Prob  float64
}

// EmpiricalCDF samples flow sizes by inverse-transform sampling with
// log-linear interpolation between anchor points, the standard way
// datacenter workload CDFs are replayed in simulation.
type EmpiricalCDF struct {
	points []CDFPoint
	name   string
}

// NewEmpiricalCDF validates and builds a CDF. Points must be sorted by
// probability, start above probability 0, and end at exactly 1.
func NewEmpiricalCDF(name string, points []CDFPoint) (*EmpiricalCDF, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("workload: CDF %q needs >= 2 points", name)
	}
	for i, p := range points {
		// The positive form (rather than `<= 0`) also rejects NaN, which
		// fails every ordered comparison and would otherwise slip through.
		if !(p.Bytes > 0) || math.IsInf(p.Bytes, 1) || !(p.Prob > 0) || p.Prob > 1 {
			return nil, fmt.Errorf("workload: CDF %q point %d out of range: %+v", name, i, p)
		}
		if i > 0 && (p.Prob <= points[i-1].Prob || p.Bytes < points[i-1].Bytes) {
			return nil, fmt.Errorf("workload: CDF %q not monotone at point %d", name, i)
		}
	}
	if points[len(points)-1].Prob != 1 {
		return nil, fmt.Errorf("workload: CDF %q must end at probability 1", name)
	}
	return &EmpiricalCDF{points: points, name: name}, nil
}

// mustCDF builds a CDF or panics (package-internal literals only).
func mustCDF(name string, points []CDFPoint) *EmpiricalCDF {
	c, err := NewEmpiricalCDF(name, points)
	if err != nil {
		panic(err)
	}
	return c
}

// WebSearch returns the web-search flow-size distribution used throughout
// the paper's evaluation (originally measured in a production search
// cluster and published with DCTCP). The anchor points below approximate
// that distribution: about half the flows are mice under ~100KB, while
// flows above 1MB carry the bulk of the bytes; the mean is ~1.6MB.
func WebSearch() *EmpiricalCDF {
	return mustCDF("web-search", []CDFPoint{
		{6e3, 0.15},
		{13e3, 0.20},
		{19e3, 0.30},
		{33e3, 0.40},
		{53e3, 0.53},
		{133e3, 0.60},
		{667e3, 0.70},
		{1467e3, 0.80},
		{3333e3, 0.90},
		{6667e3, 0.95},
		{20e6, 0.98},
		{30e6, 1.00},
	})
}

// DataMining returns the data-mining distribution (from the VL2 study),
// offered as an additional workload: even heavier-tailed, with ~80% of
// flows under 10KB and a maximum around 1GB (truncated here to 100MB to
// keep simulations tractable).
func DataMining() *EmpiricalCDF {
	return mustCDF("data-mining", []CDFPoint{
		{100, 0.50},
		{1e3, 0.60},
		{10e3, 0.78},
		{100e3, 0.85},
		{1e6, 0.91},
		{10e6, 0.96},
		{100e6, 1.00},
	})
}

// CacheFollower returns an RPC-style flow-size distribution modelled on the
// published cache-follower traffic of a large social-network datacenter:
// dominated by sub-kilobyte request/response pairs, with a thin tail of
// larger object fetches. It is the "RPC" component of scenario workload
// mixes — latency-bound mice against which the web-search elephants compete.
func CacheFollower() *EmpiricalCDF {
	return mustCDF("cache-follower", []CDFPoint{
		{350, 0.50},
		{1e3, 0.70},
		{5e3, 0.80},
		{50e3, 0.90},
		{500e3, 0.97},
		{2e6, 0.99},
		{10e6, 1.00},
	})
}

// Name returns the distribution's name.
func (c *EmpiricalCDF) Name() string { return c.name }

// maxFlowSize caps sampled flow sizes: converting a float beyond int64
// range is implementation-specific in Go, so the clamp keeps Sample total
// even for pathological (huge-anchor) distributions.
const maxFlowSize = int64(1) << 62

// toSize converts an interpolated size to a positive flow size in bytes.
func toSize(v float64) int64 {
	if !(v > 1) { // also catches NaN from degenerate interpolation
		return 1
	}
	if v > float64(maxFlowSize) {
		return maxFlowSize
	}
	return int64(v)
}

// Sample draws one flow size in bytes, always in [1, maxFlowSize].
func (c *EmpiricalCDF) Sample(rng *rand.Rand) int64 {
	u := rng.Float64()
	pts := c.points
	if u <= pts[0].Prob {
		// Below the first anchor: interpolate from 1 byte.
		frac := u / pts[0].Prob
		return toSize(math.Exp(math.Log(pts[0].Bytes) * frac))
	}
	for i := 1; i < len(pts); i++ {
		if u <= pts[i].Prob {
			lo, hi := pts[i-1], pts[i]
			frac := (u - lo.Prob) / (hi.Prob - lo.Prob)
			logSize := math.Log(lo.Bytes) + (math.Log(hi.Bytes)-math.Log(lo.Bytes))*frac
			return toSize(math.Exp(logSize))
		}
	}
	return toSize(pts[len(pts)-1].Bytes)
}

// Mean estimates the distribution mean by numeric integration over the
// interpolated CDF (used to convert target load to arrival rate).
func (c *EmpiricalCDF) Mean() float64 {
	// Sample-free estimate: piecewise mean of the log-linear segments via
	// fine slicing.
	const steps = 10000
	var sum float64
	prevP := 0.0
	prevB := 1.0
	idx := 0
	for s := 1; s <= steps; s++ {
		u := float64(s) / steps
		for idx < len(c.points) && c.points[idx].Prob < u {
			idx++
		}
		var b float64
		if idx == 0 {
			frac := u / c.points[0].Prob
			b = math.Exp(math.Log(c.points[0].Bytes) * frac)
		} else if idx >= len(c.points) {
			b = c.points[len(c.points)-1].Bytes
		} else {
			lo, hi := c.points[idx-1], c.points[idx]
			frac := (u - lo.Prob) / (hi.Prob - lo.Prob)
			b = math.Exp(math.Log(lo.Bytes) + (math.Log(hi.Bytes)-math.Log(lo.Bytes))*frac)
		}
		sum += (b + prevB) / 2 * (u - prevP)
		prevP, prevB = u, b
	}
	return sum
}

// Scaled returns a copy with all sizes multiplied by factor — used to run
// the same distribution shape at simulation-friendly scales.
func (c *EmpiricalCDF) Scaled(factor float64) *EmpiricalCDF {
	pts := make([]CDFPoint, len(c.points))
	for i, p := range c.points {
		pts[i] = CDFPoint{Bytes: math.Max(1, p.Bytes*factor), Prob: p.Prob}
	}
	return mustCDF(fmt.Sprintf("%s(x%g)", c.name, factor), pts)
}

// ArrivalRateForLoad converts a target network load into a per-connection
// Poisson flow rate: load × capacity spread over nConns connections of
// meanFlow-byte flows.
func ArrivalRateForLoad(load float64, capacityBps int64, nConns int, meanFlowBytes float64) float64 {
	if load <= 0 || capacityBps <= 0 || nConns <= 0 || meanFlowBytes <= 0 {
		panic("workload: non-positive load parameters")
	}
	bytesPerSec := load * float64(capacityBps) / 8
	return bytesPerSec / (float64(nConns) * meanFlowBytes)
}
