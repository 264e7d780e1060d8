// Package clove is a Go implementation and experimental reproduction of
// Clove, the congestion-aware load balancer that runs entirely in the
// hypervisor virtual switch (Katta et al., CoNEXT 2017).
//
// The package exposes three layers:
//
//   - A deterministic packet-level datacenter simulator (leaf–spine ECMP
//     fabric, NewReno/MPTCP tenant transports, hypervisor virtual switches)
//     with eleven load-balancing schemes (Schemes): the eight from the
//     paper's evaluation — ECMP, Edge-Flowlet, Clove-ECN, Clove-INT,
//     Presto, MPTCP, CONGA, and LetFlow — plus Clove-Latency (the Sec. 7
//     path-latency extension), Concury, and Charon. Build one with NewCluster and drive it with RunWebSearch /
//     RunIncast, or regenerate any of the paper's figures with RunFigure.
//
//   - The Clove algorithm itself as reusable pieces (flowlet detection,
//     weighted round-robin with congestion-adaptive weights, traceroute
//     path discovery) living under internal packages and surfaced through
//     the cluster and datapath APIs.
//
//   - A real userspace datapath (NewEndpoint): UDP tunnel endpoints that
//     steer traffic across ECMP paths by outer source port, with flowlet
//     switching and in-band congestion feedback — the deployable form of
//     the algorithm.
//
// Quick start:
//
//	c := clove.NewCluster(clove.ClusterConfig{
//		Seed:              1,
//		Topo:              clove.ScaledTestbed(1.0, 8),
//		Scheme:            clove.CloveECN,
//		AsymmetricFailure: true,
//	})
//	c.RunWebSearch(clove.WebSearchParams{Load: 0.7, TotalJobs: 2000, SizeScale: 0.1})
//	fmt.Println(c.Recorder.Summarize())
package clove

import (
	"io"
	"time"

	"clove/internal/cluster"
	"clove/internal/datapath"
	"clove/internal/experiments"
	"clove/internal/netem"
	"clove/internal/scenario"
	"clove/internal/sim"
	"clove/internal/stats"
)

// Scheme selects a load-balancing algorithm.
type Scheme = cluster.Scheme

// The schemes evaluated in the paper.
const (
	ECMP        = cluster.SchemeECMP
	EdgeFlowlet = cluster.SchemeEdgeFlowlet
	CloveECN    = cluster.SchemeCloveECN
	CloveINT    = cluster.SchemeCloveINT
	Presto      = cluster.SchemePresto
	MPTCP       = cluster.SchemeMPTCP
	CONGA       = cluster.SchemeCONGA
	LetFlow     = cluster.SchemeLetFlow
	// CloveLatency is the Sec. 7 extension: one-way path delay as the
	// reflected congestion metric instead of ECN or INT.
	CloveLatency = cluster.SchemeCloveLatency
	// Concury is the edge-stateless contrast point: encap ports come from
	// a versioned consistent-hash table with no per-flow state.
	Concury = cluster.SchemeConcury
	// Charon is the in-network contrast point: leaf switches stamp
	// per-path load and the edge picks the less-loaded of two hashed
	// candidates.
	Charon = cluster.SchemeCharon
)

// Schemes lists every scheme in presentation order.
func Schemes() []Scheme { return cluster.AllSchemes() }

// ClusterConfig parameterizes a simulated deployment.
type ClusterConfig = cluster.Config

// Cluster is a fully wired simulated deployment; see internal/cluster.
type Cluster = cluster.Cluster

// WebSearchParams configures the paper's main workload.
type WebSearchParams = cluster.WebSearchParams

// IncastParams configures the partition-aggregate workload (Sec. 5.3).
type IncastParams = cluster.IncastParams

// TopoConfig parameterizes the leaf-spine fabric.
type TopoConfig = netem.LeafSpineConfig

// Summary is the FCT digest of a run.
type Summary = stats.Summary

// NewCluster builds a simulated deployment.
func NewCluster(cfg ClusterConfig) *Cluster { return cluster.New(cfg) }

// PaperTestbed returns the paper's 32-server 10G/40G leaf-spine testbed
// configuration, optionally rate-scaled.
func PaperTestbed(scale float64) TopoConfig { return netem.PaperTestbed(scale) }

// ScaledTestbed shrinks the testbed while preserving its
// non-oversubscription ratio; see netem.ScaledTestbed.
func ScaledTestbed(scale float64, hostsPerLeaf int) TopoConfig {
	return netem.ScaledTestbed(scale, hostsPerLeaf)
}

// Scale sizes an experiment run (see QuickScale / StandardScale /
// PaperScale).
type Scale = experiments.Scale

// TraceSpec asks every experiment run for a telemetry trace exported under
// its Dir (see internal/telemetry and EXPERIMENTS.md "Telemetry & tracing").
type TraceSpec = experiments.TraceSpec

// FromDuration converts a wall-clock time.Duration into simulated time (for
// TraceSpec.Interval and similar knobs).
func FromDuration(d time.Duration) sim.Time { return sim.FromDuration(d) }

// Row is one data point of a regenerated figure.
type Row = experiments.Row

// HeadlineResult holds the paper's headline claims as measured ratios.
type HeadlineResult = experiments.HeadlineResult

// QuickScale is sized for CI and benchmarks.
func QuickScale() Scale { return experiments.Quick() }

// StandardScale is the CLI default (minutes of wall time).
func StandardScale() Scale { return experiments.Standard() }

// PaperScale is the full-fidelity configuration (hours).
func PaperScale() Scale { return experiments.Paper() }

// FigureIDs lists the reproducible paper figures ("4b" ... "9").
func FigureIDs() []string { return experiments.ExperimentIDs() }

// RunFigure regenerates one of the paper's evaluation figures at the given
// scale, streaming progress lines to progress (may be nil).
func RunFigure(id string, sc Scale, progress io.Writer) ([]Row, error) {
	spec, err := experiments.Figure(id)
	if err != nil {
		return nil, err
	}
	return experiments.Run(sc, []experiments.Spec{spec}, progress)[0], nil
}

// RunSummary measures the paper's headline ratios at the given load on the
// asymmetric topology.
func RunSummary(sc Scale, load float64, progress io.Writer) HeadlineResult {
	spec := experiments.SummarySpec(load)
	return Headline(experiments.Run(sc, []experiments.Spec{spec}, progress)[0])
}

// RunFigures regenerates several figures as one plan: a simulation that more
// than one of them asks for runs once (Figs. 5a–c are breakdowns of 4c's
// runs, Fig. 9 and the summary read Fig. 8b's, Figs. 8a/8b repeat part of
// 4b/4c), so the result is the bytes of one RunFigure call per id in fewer
// simulations. ids are FigureIDs entries, or "summary" for the runs behind
// the headline ratios at load (unused otherwise): Headline turns those rows
// into the ratios. Rows come back per id, in the order asked.
func RunFigures(ids []string, sc Scale, load float64, progress io.Writer) ([][]Row, error) {
	specs := make([]experiments.Spec, len(ids))
	for i, id := range ids {
		if id == "summary" {
			specs[i] = experiments.SummarySpec(load)
			continue
		}
		var err error
		if specs[i], err = experiments.Figure(id); err != nil {
			return nil, err
		}
	}
	return experiments.Run(sc, specs, progress), nil
}

// Headline derives the headline ratios from the "summary" rows of RunFigures.
func Headline(rows []Row) HeadlineResult { return experiments.Headline(rows) }

// FormatRows renders figure rows as an aligned text table.
func FormatRows(rows []Row) string { return experiments.FormatRows(rows) }

// Scenario is a declarative experiment spec: topology, workload blend,
// schemes, and a timestamped event script (see internal/scenario and the
// EXPERIMENTS.md "Scenarios" section).
type Scenario = scenario.Spec

// ScenarioOpts configures a scenario run (parallelism, oracle, telemetry,
// quick CI scale).
type ScenarioOpts = experiments.ScenarioOpts

// ScenarioNames lists the scenarios embedded in the binary.
func ScenarioNames() []string { return scenario.Names() }

// LoadScenario resolves an embedded scenario name or a path to a spec file.
func LoadScenario(nameOrPath string) (*Scenario, error) { return scenario.Load(nameOrPath) }

// RunScenario executes every (scheme, seed) run of the spec and returns one
// aggregated Row per scheme; output is byte-identical at any parallelism.
func RunScenario(sp *Scenario, opts ScenarioOpts, progress io.Writer) []Row {
	return experiments.RunScenario(sp, opts, progress)
}

// Endpoint is a real userspace Clove tunnel endpoint over UDP sockets.
type Endpoint = datapath.Endpoint

// EndpointConfig parameterizes an Endpoint.
type EndpointConfig = datapath.Config

// PathEmulator emulates a multipath ECMP fabric in-process for endpoint
// tests and demos.
type PathEmulator = datapath.PathEmulator

// PathProfile shapes one emulated path.
type PathProfile = datapath.PathProfile

// NewEndpoint creates a tunnel endpoint bound to cfg.Paths UDP sockets.
func NewEndpoint(localIP string, cfg EndpointConfig) (*Endpoint, error) {
	return datapath.NewEndpoint(localIP, cfg)
}

// DefaultEndpointConfig returns LAN-scale endpoint defaults.
func DefaultEndpointConfig() EndpointConfig { return datapath.DefaultConfig() }

// NewPathEmulator creates an in-process multipath fabric emulator.
func NewPathEmulator(localIP, dest string, profiles []PathProfile) (*PathEmulator, error) {
	return datapath.NewPathEmulator(localIP, dest, profiles)
}
