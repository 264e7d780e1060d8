package experiments

import (
	"math"
	"strings"
	"testing"

	"clove/internal/cluster"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// deriveHeadline feeds Headline one summary row per scheme mean.
func deriveHeadline(load float64, means map[cluster.Scheme]float64) HeadlineResult {
	var rows []Row
	for scheme, mean := range means {
		rows = append(rows, Row{Figure: "summary", Scheme: string(scheme), Load: load, MeanFCTSec: mean})
	}
	return Headline(rows)
}

// TestDeriveHeadlineRatios checks the headline-ratio arithmetic against
// hand-computed values.
func TestDeriveHeadlineRatios(t *testing.T) {
	h := deriveHeadline(0.7, map[cluster.Scheme]float64{
		cluster.SchemeECMP:        10,
		cluster.SchemeEdgeFlowlet: 5,
		cluster.SchemeCloveECN:    4,
		cluster.SchemeCloveINT:    3,
		cluster.SchemeCONGA:       2,
	})
	if h.Load != 0.7 {
		t.Errorf("load = %v", h.Load)
	}
	if !almost(h.CloveVsECMP, 2.5) {
		t.Errorf("CloveVsECMP = %v, want 2.5", h.CloveVsECMP)
	}
	if !almost(h.EdgeFlowletVsECMP, 2.0) {
		t.Errorf("EdgeFlowletVsECMP = %v, want 2", h.EdgeFlowletVsECMP)
	}
	// Gain ECMP->CONGA is 8; Clove-ECN recovers 6 of it, Clove-INT 7.
	if !almost(h.CloveECNGainCapture, 0.75) {
		t.Errorf("CloveECNGainCapture = %v, want 0.75", h.CloveECNGainCapture)
	}
	if !almost(h.CloveINTGainCapture, 0.875) {
		t.Errorf("CloveINTGainCapture = %v, want 0.875", h.CloveINTGainCapture)
	}
}

// TestDeriveHeadlineDegenerate: zero/missing means must not divide by
// zero or emit NaNs — ratios stay at their zero values.
func TestDeriveHeadlineDegenerate(t *testing.T) {
	h := deriveHeadline(0.8, map[cluster.Scheme]float64{})
	if h.CloveVsECMP != 0 || h.EdgeFlowletVsECMP != 0 ||
		h.CloveECNGainCapture != 0 || h.CloveINTGainCapture != 0 {
		t.Errorf("degenerate input produced nonzero ratios: %+v", h)
	}
	for _, v := range []float64{h.CloveVsECMP, h.CloveECNGainCapture} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("non-finite ratio: %+v", h)
		}
	}
}

// TestDeriveHeadlineNoGain: when CONGA fails to improve on ECMP the
// gain-capture fractions are undefined and must stay 0 (not negative or
// infinite).
func TestDeriveHeadlineNoGain(t *testing.T) {
	h := deriveHeadline(0.6, map[cluster.Scheme]float64{
		cluster.SchemeECMP:        5,
		cluster.SchemeCONGA:       5, // no gain
		cluster.SchemeCloveECN:    4,
		cluster.SchemeCloveINT:    4,
		cluster.SchemeEdgeFlowlet: 4,
	})
	if h.CloveECNGainCapture != 0 || h.CloveINTGainCapture != 0 {
		t.Errorf("gain capture defined without gain: %+v", h)
	}
	if !almost(h.CloveVsECMP, 1.25) {
		t.Errorf("CloveVsECMP = %v", h.CloveVsECMP)
	}
}

// TestHeadlineString checks the rendered comparison carries the measured
// numbers and the paper's reference claims.
func TestHeadlineString(t *testing.T) {
	h := HeadlineResult{
		Load: 0.7, CloveVsECMP: 2.39, EdgeFlowletVsECMP: 2.24,
		CloveECNGainCapture: 0.851, CloveINTGainCapture: 0.851,
	}
	s := h.String()
	for _, want := range []string{"70%", "2.39x", "2.24x", "85.1%", "paper:"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary string missing %q:\n%s", want, s)
		}
	}
}
