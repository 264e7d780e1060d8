package experiments

import (
	"fmt"
	"strings"

	"clove/internal/cluster"
	"clove/internal/scenario"
	"clove/internal/sim"
)

// kind selects a Spec's x axis and how its runs become Rows.
type kind int

const (
	loadSweep kind = iota // web-search over loads: FCT summary per point
	incast                // partition-aggregate over fanouts: client goodput
	miceCDF               // web-search over loads: CDF of all seeds' mice FCTs
)

// Spec describes one figure as data: the table below holds the paper's ten,
// SummarySpec the headline runs, and RunScenario builds one per scenario.
type Spec struct {
	figure  string // Row.Figure, and the run-name prefix unless prefix is set
	kind    kind
	schemes []cluster.Scheme
	// asym takes the S2-L2 trunk down before traffic starts; Presto then gets
	// the ideal static path weights, as in the paper (Sec. 5.2).
	asym     bool
	maxLoad  float64   // skip sweep points above this (the paper stops asym sweeps early)
	loads    []float64 // these loads instead of the Scale's sweep
	variants []variant // labelled settings (Fig. 6); nil = the defaults, unlabelled

	// RunScenario's: each run is scn's scripted RunMix on its own topology.
	scn    *scenario.Spec
	prefix string
}

// variant is one labelled setting of a parameter study.
type variant struct {
	label  string
	mutate func(*cluster.Config) // nil leaves the config at its defaults
}

// testbedSchemes are the deployable schemes of the hardware evaluation
// (Sec. 5). CONGA and Clove-INT need new switch features and only appear in
// the simulation figures (Sec. 6).
var testbedSchemes = []cluster.Scheme{
	cluster.SchemeECMP, cluster.SchemeEdgeFlowlet, cluster.SchemeCloveECN,
	cluster.SchemeMPTCP, cluster.SchemePresto,
}

// simSchemes are the simulation-only sweeps: the paper's set plus the two
// contrast points added here — stateless Concury and in-network Charon —
// which, like CONGA and Clove-INT, need features a commodity edge or
// fabric of the testbed era did not have.
var simSchemes = []cluster.Scheme{
	cluster.SchemeECMP, cluster.SchemeEdgeFlowlet, cluster.SchemeCloveECN,
	cluster.SchemeCloveINT, cluster.SchemeCONGA,
	cluster.SchemeConcury, cluster.SchemeCharon,
}

// flowletGapRTTs sets the flowlet gap in units of the effective (loaded)
// RTT; the cluster default is 1x.
func flowletGapRTTs(mult float64) func(*cluster.Config) {
	return func(cfg *cluster.Config) {
		rtt := cfg.Topo.BaseRTT()
		cfg.FlowletGap = sim.Time(float64(rtt) * mult)
	}
}

// figures is the paper's evaluation in figure order; adding a figure is
// adding an entry.
var figures = []Spec{
	{figure: "fig4b", schemes: testbedSchemes}, // symmetric testbed, avg FCT
	// The asymmetric testbed, avg FCT, and — the same experiment — its <100KB
	// flows (Row.MiceFCTSec), its >10MB flows (Row.ElephFCTSec; the cutoff
	// scales with SizeScale) and its 99th percentile (Row.P99FCTSec).
	{figure: "fig4c", schemes: testbedSchemes, asym: true, maxLoad: 0.8},
	{figure: "fig5a", schemes: testbedSchemes, asym: true, maxLoad: 0.8},
	{figure: "fig5b", schemes: testbedSchemes, asym: true, maxLoad: 0.8},
	{figure: "fig5c", schemes: testbedSchemes, asym: true, maxLoad: 0.8},
	// Clove-ECN's sensitivity to (flowlet gap, ECN threshold). The best
	// setting is the default one, so its runs are Fig. 4c's.
	{figure: "fig6", schemes: []cluster.Scheme{cluster.SchemeCloveECN}, asym: true, maxLoad: 0.8,
		variants: []variant{
			{label: "clove-best (1*RTT, 20pkts)"},
			{label: "clove (0.2*RTT, 20pkts)", mutate: flowletGapRTTs(0.2)},
			{label: "clove (5*RTT, 20pkts)", mutate: flowletGapRTTs(5)},
			{label: "clove (1*RTT, 40pkts)", mutate: func(cfg *cluster.Config) { cfg.Topo.ECNK = 40 }},
		}},
	{figure: "fig7", kind: incast, // client goodput vs request fanout
		schemes: []cluster.Scheme{cluster.SchemeCloveECN, cluster.SchemeEdgeFlowlet, cluster.SchemeMPTCP}},
	{figure: "fig8a", schemes: simSchemes},                           // NS2 comparison, symmetric
	{figure: "fig8b", schemes: simSchemes, asym: true, maxLoad: 0.7}, // and asymmetric
	{figure: "fig9", kind: miceCDF, asym: true, loads: []float64{0.7}, // mice FCTs of Fig. 8b at 70%
		schemes: []cluster.Scheme{cluster.SchemeECMP, cluster.SchemeCloveECN, cluster.SchemeCONGA}},
}

// ExperimentIDs lists the figure IDs ("4b" ... "9") in figure order.
func ExperimentIDs() []string {
	ids := make([]string, len(figures))
	for i, s := range figures {
		ids[i] = strings.TrimPrefix(s.figure, "fig")
	}
	return ids
}

// Figure returns the spec of one of the paper's figures by ID.
func Figure(id string) (Spec, error) {
	for _, s := range figures {
		if s.figure == "fig"+id {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("clove: unknown figure %q (known: %v)", id, ExperimentIDs())
}

// SummarySpec is the asymmetric comparison behind the headline ratios (the
// Fig. 8b column at load); Headline derives the ratios from its rows.
func SummarySpec(load float64) Spec {
	return Spec{figure: "summary", schemes: simSchemes, asym: true, loads: []float64{load}}
}
