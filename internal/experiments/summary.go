package experiments

import (
	"fmt"

	"clove/internal/cluster"
)

// HeadlineResult reproduces the paper's headline claims as measured ratios:
//   - Clove-ECN vs ECMP average-FCT speedup on the asymmetric testbed at
//     high load (paper: 7.5x at 80%).
//   - Edge-Flowlet vs ECMP speedup (paper: 4.2x at 80%).
//   - The fraction of the ECMP→CONGA improvement Clove-ECN captures in the
//     simulation figures (paper: ~80%), and Clove-INT (paper: ~95%).
type HeadlineResult struct {
	Load                float64
	CloveVsECMP         float64 // speedup factor on asymmetric topology
	EdgeFlowletVsECMP   float64
	CloveECNGainCapture float64 // fraction of ECMP->CONGA gain, asym
	CloveINTGainCapture float64
}

// Headline derives the headline ratios from the rows of a SummarySpec run
// (per scheme, the mean over seeds of each run's average FCT). Ratios against
// a zero (missing) scheme mean stay 0, and the gain-capture fractions are
// only defined when CONGA actually improves on ECMP (gain > 0).
func Headline(rows []Row) HeadlineResult {
	var res HeadlineResult
	means := map[cluster.Scheme]float64{}
	for _, r := range rows {
		res.Load = r.Load
		means[cluster.Scheme(r.Scheme)] = r.MeanFCTSec
	}
	ecmp := means[cluster.SchemeECMP]
	if m := means[cluster.SchemeCloveECN]; m > 0 {
		res.CloveVsECMP = ecmp / m
	}
	if m := means[cluster.SchemeEdgeFlowlet]; m > 0 {
		res.EdgeFlowletVsECMP = ecmp / m
	}
	if gain := ecmp - means[cluster.SchemeCONGA]; gain > 0 {
		res.CloveECNGainCapture = (ecmp - means[cluster.SchemeCloveECN]) / gain
		res.CloveINTGainCapture = (ecmp - means[cluster.SchemeCloveINT]) / gain
	}
	return res
}

// String renders the headline comparison next to the paper's claims.
func (h HeadlineResult) String() string {
	return fmt.Sprintf(
		"at %.0f%% load (asymmetric):\n"+
			"  Clove-ECN vs ECMP speedup:    %.2fx  (paper: 1.5x-7.5x at 70-80%%)\n"+
			"  Edge-Flowlet vs ECMP speedup: %.2fx  (paper: ~4.2x at 80%%)\n"+
			"  Clove-ECN captures           %5.1f%% of ECMP->CONGA gain (paper: ~80%%)\n"+
			"  Clove-INT captures           %5.1f%% of ECMP->CONGA gain (paper: ~95%%)",
		h.Load*100, h.CloveVsECMP, h.EdgeFlowletVsECMP,
		h.CloveECNGainCapture*100, h.CloveINTGainCapture*100)
}
