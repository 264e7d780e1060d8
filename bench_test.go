package clove

import (
	"runtime"
	"strconv"
	"testing"

	"clove/internal/cluster"
	"clove/internal/netem"
	"clove/internal/sim"
)

func reportTopLoad(b *testing.B, rows []Row) {
	b.Helper()
	var maxLoad float64
	for _, r := range rows {
		if r.Load > maxLoad {
			maxLoad = r.Load
		}
	}
	for _, r := range rows {
		if r.Load == maxLoad && r.MeanFCTSec > 0 {
			name := r.Scheme
			if r.Variant != "" {
				name = r.Variant
			}
			b.ReportMetric(r.MeanFCTSec*1000, "msFCT:"+metricSafe(name))
		}
	}
}

// metricSafe strips characters testing.B.ReportMetric rejects in units.
func metricSafe(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ', '\t':
			out = append(out, '_')
		case '(', ')', ',':
			// drop
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkFigure regenerates every evaluation artifact of the paper at
// QuickScale, each as its own one-figure plan (see EXPERIMENTS.md for
// paper-vs-measured tables at larger scales). Each reports the figure's
// headline metric via b.ReportMetric so `go test -bench=Figure` output
// doubles as a miniature results table.
func BenchmarkFigure(b *testing.B) {
	perScheme := func(unit string, metric func(Row) float64) func(*testing.B, []Row) {
		return func(b *testing.B, rows []Row) {
			for _, r := range rows {
				b.ReportMetric(metric(r), unit+":"+r.Scheme)
			}
		}
	}
	at70 := []float64{0.7} // the breakdown figures' interesting point
	cases := []struct {
		id     string
		loads  []float64 // nil = the quick sweep
		report func(*testing.B, []Row)
	}{
		{"4b", nil, reportTopLoad},
		{"4c", nil, reportTopLoad},
		{"5a", at70, perScheme("msMice", func(r Row) float64 { return r.MiceFCTSec * 1000 })},
		{"5b", at70, perScheme("msEleph", func(r Row) float64 { return r.ElephFCTSec * 1000 })},
		{"5c", at70, perScheme("msP99", func(r Row) float64 { return r.P99FCTSec * 1000 })},
		{"6", at70, reportTopLoad},
		{"7", nil, func(b *testing.B, rows []Row) {
			for _, r := range rows {
				if r.Fanout == 3 { // the largest fanout at quick scale
					b.ReportMetric(r.GoodputBps/1e9, "gbps:"+r.Scheme)
				}
			}
		}},
		{"8a", nil, reportTopLoad},
		{"8b", nil, reportTopLoad},
		{"9", nil, perScheme("msMiceP99", func(r Row) float64 { return r.P99FCTSec * 1000 })},
		{"summary", nil, func(b *testing.B, rows []Row) {
			h := Headline(rows)
			b.ReportMetric(h.CloveVsECMP, "xCloveVsECMP")
			b.ReportMetric(h.EdgeFlowletVsECMP, "xEdgeFlowletVsECMP")
			b.ReportMetric(h.CloveECNGainCapture*100, "pctGainCaptureECN")
			b.ReportMetric(h.CloveINTGainCapture*100, "pctGainCaptureINT")
		}},
	}
	for _, tc := range cases {
		b.Run(tc.id, func(b *testing.B) {
			b.ReportAllocs()
			sc := QuickScale()
			if tc.loads != nil {
				sc.Loads = tc.loads
			}
			var rows []Row
			for i := 0; i < b.N; i++ {
				figs, err := RunFigures([]string{tc.id}, sc, 0.7, nil)
				if err != nil {
					b.Fatal(err)
				}
				rows = figs[0]
			}
			tc.report(b, rows)
		})
	}
}

// --- Ablation benches (design choices beyond the paper's figures) ---

func ablationRun(b *testing.B, mutate func(*cluster.Config)) float64 {
	b.Helper()
	var mean float64
	for _, seed := range []int64{1, 2} {
		cfg := cluster.Config{
			Seed: seed, Topo: netem.ScaledTestbed(1.0, 4),
			Scheme: cluster.SchemeCloveECN, AsymmetricFailure: true,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		c := cluster.New(cfg)
		c.RunWebSearch(cluster.WebSearchParams{
			Load: 0.7, TotalJobs: 1000, SizeScale: 0.1, MaxSimTime: 300 * sim.Second,
		})
		mean += c.Recorder.Mean() / 2
	}
	return mean
}

// BenchmarkAblationBeta sweeps the weight-reduction fraction (Sec. 3.2
// suggests "e.g., by a third").
func BenchmarkAblationBeta(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, beta := range []float64{0.125, 1.0 / 3.0, 0.5} {
			beta := beta
			mean := ablationRun(b, func(cfg *cluster.Config) { cfg.Beta = beta })
			b.ReportMetric(mean*1000, "msFCT:beta="+strconv.FormatFloat(beta, 'g', 3, 64))
		}
	}
}

// BenchmarkAblationRelayFreq sweeps the ECN relay interval around the
// paper's RTT/2 recommendation.
func BenchmarkAblationRelayFreq(b *testing.B) {
	b.ReportAllocs()
	rtt := netem.ScaledTestbed(1.0, 4).BaseRTT()
	for i := 0; i < b.N; i++ {
		for _, mult := range []float64{0.25, 0.5, 2, 4} {
			mult := mult
			mean := ablationRun(b, func(cfg *cluster.Config) {
				cfg.RelayInterval = sim.Time(float64(rtt) * mult)
			})
			b.ReportMetric(mean*1000, "msFCT:relay="+strconv.FormatFloat(mult, 'g', 3, 64)+"xRTT")
		}
	}
}

// BenchmarkAblationPathCount sweeps the number of discovered disjoint paths
// k (Sec. 3.1 picks k from the probe results).
func BenchmarkAblationPathCount(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, k := range []int{2, 3, 4} {
			k := k
			mean := ablationRun(b, func(cfg *cluster.Config) { cfg.PathsK = k })
			b.ReportMetric(mean*1000, "msFCT:k="+strconv.Itoa(k))
		}
	}
}

// BenchmarkAblationFlowletGap reproduces the gap sensitivity at finer grain
// than Fig. 6.
func BenchmarkAblationFlowletGap(b *testing.B) {
	b.ReportAllocs()
	rtt := netem.ScaledTestbed(1.0, 4).BaseRTT()
	for i := 0; i < b.N; i++ {
		for _, mult := range []float64{0.5, 1, 2, 4} {
			mult := mult
			mean := ablationRun(b, func(cfg *cluster.Config) {
				cfg.FlowletGap = sim.Time(float64(rtt) * mult)
			})
			b.ReportMetric(mean*1000, "msFCT:gap="+strconv.FormatFloat(mult, 'g', 3, 64)+"xRTT")
		}
	}
}

// BenchmarkAblationProberVsOracle verifies real traceroute discovery costs
// nothing measurable vs the oracle installation.
func BenchmarkAblationProberVsOracle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, prober := range []bool{false, true} {
			prober := prober
			mean := ablationRun(b, func(cfg *cluster.Config) { cfg.UseProber = prober })
			name := "oracle"
			if prober {
				name = "prober"
			}
			b.ReportMetric(mean*1000, "msFCT:"+name)
		}
	}
}

// --- Parallel runner benches ---
//
// The same Fig. 8a sweep at fixed worker counts: comparing J1 against J4
// / JMax measures the concurrent runner's speedup on this machine (the
// figure tables themselves are byte-identical at every -j). On a 1-core
// runner all three converge; the >= 2x J4-vs-J1 target applies to
// multi-core hardware.

func benchSweepAtJ(b *testing.B, workers int) {
	b.ReportAllocs()
	b.Helper()
	sc := QuickScale()
	sc.Parallelism = workers
	for i := 0; i < b.N; i++ {
		if _, err := RunFigure("8a", sc, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepJ1(b *testing.B)   { benchSweepAtJ(b, 1) }
func BenchmarkSweepJ4(b *testing.B)   { benchSweepAtJ(b, 4) }
func BenchmarkSweepJMax(b *testing.B) { benchSweepAtJ(b, runtime.GOMAXPROCS(0)) }

// BenchmarkSimulatorThroughput measures raw simulator speed: events per
// second on a loaded fabric (engineering metric, not a paper figure).
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		c := cluster.New(cluster.Config{
			Seed: 1, Topo: netem.ScaledTestbed(1.0, 4), Scheme: cluster.SchemeCloveECN,
		})
		c.RunWebSearch(cluster.WebSearchParams{
			Load: 0.5, TotalJobs: 500, SizeScale: 0.1, MaxSimTime: 300 * sim.Second,
		})
		events += c.Sim.Processed()
		b.ReportMetric(float64(c.Sim.Processed()), "events/run")
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}
