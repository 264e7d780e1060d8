// Package stats aggregates flow-completion-time measurements into the
// metrics the paper reports: average FCT overall and by flow-size bucket,
// high percentiles, and CDFs.
package stats

import (
	"fmt"
	"math"
	"sort"

	"clove/internal/sim"
)

// Sample is one completed flow.
type Sample struct {
	Size int64    // flow size in bytes
	FCT  sim.Time // completion time (arrival to last byte acked)
}

// FCTRecorder collects flow completions.
type FCTRecorder struct {
	samples []Sample
	sorted  bool

	// sizeScale rescales the mice/elephant bucket cutoffs for runs whose
	// flow sizes were shrunk relative to the paper's distribution (a run at
	// SizeScale 0.1 calls a 1MB flow an "elephant" because it stands in for
	// a 10MB one). 0 means 1.
	sizeScale float64
}

// SetSizeScale declares the flow-size multiplier of the run feeding this
// recorder, so the <100KB and >10MB paper buckets scale with it.
func (r *FCTRecorder) SetSizeScale(s float64) { r.sizeScale = s }

func (r *FCTRecorder) scale() float64 {
	if r.sizeScale <= 0 {
		return 1
	}
	return r.sizeScale
}

// Add records a completion.
func (r *FCTRecorder) Add(size int64, fct sim.Time) {
	r.samples = append(r.samples, Sample{Size: size, FCT: fct})
	r.sorted = false
}

// Count returns the number of samples.
func (r *FCTRecorder) Count() int { return len(r.samples) }

// Samples returns the raw samples (not a copy; treat as read-only).
func (r *FCTRecorder) Samples() []Sample { return r.samples }

// Mean returns the average FCT in seconds (0 with no samples).
func (r *FCTRecorder) Mean() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range r.samples {
		sum += s.FCT.Seconds()
	}
	return sum / float64(len(r.samples))
}

// Percentile returns the p-quantile (0 < p <= 1) of FCT in seconds using
// the nearest-rank method. It panics on an out-of-range p.
func (r *FCTRecorder) Percentile(p float64) float64 {
	if p <= 0 || p > 1 {
		panic(fmt.Sprintf("stats: percentile %v out of (0,1]", p))
	}
	if len(r.samples) == 0 {
		return 0
	}
	r.ensureSorted()
	rank := int(math.Ceil(p*float64(len(r.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	return r.samples[rank].FCT.Seconds()
}

// Filter returns a new recorder holding only samples with keep(size)=true.
func (r *FCTRecorder) Filter(keep func(size int64) bool) *FCTRecorder {
	out := &FCTRecorder{}
	for _, s := range r.samples {
		if keep(s.Size) {
			out.samples = append(out.samples, s)
		}
	}
	return out
}

// Mice returns samples under 100KB (the paper's small-flow bucket),
// rescaled by the run's size scale.
func (r *FCTRecorder) Mice() *FCTRecorder {
	cutoff := int64(100_000 * r.scale())
	out := r.Filter(func(size int64) bool { return size < cutoff })
	out.sizeScale = r.sizeScale
	return out
}

// Elephants returns samples over 10MB (the paper's large-flow bucket),
// rescaled by the run's size scale.
func (r *FCTRecorder) Elephants() *FCTRecorder {
	cutoff := int64(10_000_000 * r.scale())
	out := r.Filter(func(size int64) bool { return size > cutoff })
	out.sizeScale = r.sizeScale
	return out
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Seconds float64 // FCT
	P       float64 // cumulative probability
}

// CDF returns up to n evenly-spaced points of the empirical FCT CDF,
// always ending at P=1.
func (r *FCTRecorder) CDF(n int) []CDFPoint {
	if len(r.samples) == 0 || n <= 0 {
		return nil
	}
	r.ensureSorted()
	if n > len(r.samples) {
		n = len(r.samples)
	}
	out := make([]CDFPoint, 0, n)
	for i := 1; i <= n; i++ {
		idx := i*len(r.samples)/n - 1
		out = append(out, CDFPoint{
			Seconds: r.samples[idx].FCT.Seconds(),
			P:       float64(idx+1) / float64(len(r.samples)),
		})
	}
	return out
}

func (r *FCTRecorder) ensureSorted() {
	if r.sorted {
		return
	}
	sort.Slice(r.samples, func(i, j int) bool { return r.samples[i].FCT < r.samples[j].FCT })
	r.sorted = true
}

// MeanStderr aggregates one metric across independent replicates (e.g.
// the per-seed means of a grid point): it returns the sample mean and the
// standard error of that mean (sample stddev / sqrt(n)). With fewer than
// two replicates the stderr is 0. Summation runs in slice order, so a
// deterministic input order gives bit-identical results.
func MeanStderr(xs []float64) (mean, stderr float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	n := float64(len(xs))
	stderr = math.Sqrt(ss/(n-1)) / math.Sqrt(n)
	return mean, stderr
}

// Summary is a compact digest of a recorder, as printed in result tables.
type Summary struct {
	Count        int
	MeanSec      float64
	P50Sec       float64
	P95Sec       float64
	P99Sec       float64
	MiceMeanSec  float64 // flows < 100KB
	ElephMeanSec float64 // flows > 10MB
}

// Summarize digests the recorder.
func (r *FCTRecorder) Summarize() Summary {
	return Summary{
		Count:        len(r.samples),
		MeanSec:      r.Mean(),
		P50Sec:       r.Percentile(0.50),
		P95Sec:       r.Percentile(0.95),
		P99Sec:       r.Percentile(0.99),
		MiceMeanSec:  r.Mice().Mean(),
		ElephMeanSec: r.Elephants().Mean(),
	}
}

// String renders the summary as one table row.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4fs p50=%.4fs p95=%.4fs p99=%.4fs mice=%.4fs eleph=%.4fs",
		s.Count, s.MeanSec, s.P50Sec, s.P95Sec, s.P99Sec, s.MiceMeanSec, s.ElephMeanSec)
}
