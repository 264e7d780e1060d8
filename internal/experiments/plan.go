package experiments

import (
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"clove/internal/cluster"
	"clove/internal/netem"
	"clove/internal/scenario"
	"clove/internal/stats"
	"clove/internal/telemetry"
)

// runKey identifies a simulation by everything that determines its bytes:
// the final cluster config and the workload parameters, whole structs rather
// than a chosen subset of fields. A plan performs equal keys once.
type runKey struct {
	cfg    cluster.Config
	web    cluster.WebSearchParams
	incast cluster.IncastParams // instead of web on incast runs
	scn    *scenario.Spec       // scenario runs: its scripted events + RunMix
}

// run is one distinct simulation of a plan and, once executed, its digest.
type run struct {
	key      runKey
	names    []string // runName per requesting figure; the first labels the run
	wantMice bool     // a CDF figure asked

	sum       stats.Summary
	timedOut  bool
	goodput   float64 // incast
	completed int     // incast
	mice      []stats.Sample
}

// point is one Row of a figure: its identity fields and a run per seed.
type point struct {
	row  Row
	runs []*run
}

// newPlan expands the specs into points (per spec, in grid order: variant,
// scheme, load or fanout) over distinct runs (in first-request order).
func newPlan(sc Scale, specs []Spec) (points [][]point, runs []*run) {
	points = make([][]point, len(specs))
	// One telemetry config per plan: keys differing only in which figure
	// asked must compare equal, this pointer included.
	var tcfg *telemetry.Config
	if ts := sc.Telemetry; ts != nil {
		tcfg = &telemetry.Config{Interval: ts.Interval, MaxSamples: ts.MaxSamples}
	}
	index := map[runKey]*run{}
	for si := range specs {
		s := &specs[si]
		prefix, variants := s.prefix, s.variants
		if prefix == "" {
			prefix = s.figure
		}
		if variants == nil {
			variants = []variant{{}}
		}
		for _, v := range variants {
			for _, scheme := range s.schemes {
				for _, row := range s.cells(sc) {
					row.Scheme, row.Variant, row.Replicates = string(scheme), v.label, len(sc.Seeds)
					pt := point{row: row}
					for _, seed := range sc.Seeds {
						key := s.key(sc, tcfg, v, row, seed)
						r := index[key]
						if r == nil {
							r = &run{key: key}
							index[key] = r
							runs = append(runs, r)
						}
						r.names = append(r.names, runName(prefix, row, seed))
						r.wantMice = r.wantMice || s.kind == miceCDF
						pt.runs = append(pt.runs, r)
					}
					points[si] = append(points[si], pt)
				}
			}
		}
	}
	return points, runs
}

// cells is the spec's x axis at this scale: rows carrying a load or a fanout.
func (s *Spec) cells(sc Scale) (out []Row) {
	if s.kind == incast {
		for _, f := range []int{1, 3, 5, 7, 9, 11, 13, 15} { // Fig. 7's x axis
			if f <= sc.HostsPerLeaf {
				out = append(out, Row{Figure: s.figure, Fanout: f})
			}
		}
		return out
	}
	loads := s.loads
	if loads == nil {
		loads = sc.Loads
	}
	for _, l := range loads {
		if s.maxLoad == 0 || l <= s.maxLoad {
			out = append(out, Row{Figure: s.figure, Load: l})
		}
	}
	return out
}

func (s *Spec) key(sc Scale, tcfg *telemetry.Config, v variant, row Row, seed int64) runKey {
	if s.scn != nil {
		return runKey{scn: s.scn, cfg: s.scn.ClusterConfig(row.Scheme, seed, sc.Oracle, tcfg, 0)}
	}
	k := runKey{cfg: cluster.Config{
		Seed:               seed,
		Topo:               netem.ScaledTestbed(1.0, sc.HostsPerLeaf),
		Scheme:             cluster.Scheme(row.Scheme),
		AsymmetricFailure:  s.asym,
		PrestoIdealWeights: s.asym && row.Scheme == string(cluster.SchemePresto),
		Oracle:             sc.Oracle,
		Telemetry:          tcfg,
	}}
	if v.mutate != nil {
		v.mutate(&k.cfg)
	}
	if s.kind == incast {
		k.incast = cluster.IncastParams{Fanout: row.Fanout, ResponseBytes: sc.IncastBytes,
			Requests: sc.IncastRequests, MaxSimTime: sc.MaxSimTime}
	} else {
		k.web = cluster.WebSearchParams{Load: row.Load, TotalJobs: sc.TotalJobs,
			ConnsPerClient: sc.ConnsPerClient, SizeScale: sc.SizeScale, MaxSimTime: sc.MaxSimTime}
	}
	return k
}

// simulate builds the run's cluster, drives its workload and checks the
// oracle: the only place a simulation happens.
func (r *run) simulate() *cluster.Cluster {
	c := cluster.New(r.key.cfg)
	switch {
	case r.key.scn != nil:
		r.key.scn.InstallEvents(c)
		r.timedOut = c.RunMix(r.key.scn.MixParams()).TimedOut
	case r.key.incast.Fanout > 0:
		res := c.RunIncast(r.key.incast)
		r.goodput, r.completed, r.timedOut = res.GoodputBps, res.Completed, res.TimedOut
	default:
		r.timedOut = c.RunWebSearch(r.key.web).TimedOut
	}
	if err := c.CheckOracle(); err != nil {
		panic(fmt.Sprintf("%s: %v", r.names[0], err))
	}
	return c
}

// execute performs the run, exports its trace under every requester's name,
// and keeps only the digest: the cluster is garbage when it returns.
func (r *run) execute(ts *TraceSpec) {
	c := r.simulate()
	if ts != nil {
		for _, name := range r.names {
			if err := c.ExportTraces(filepath.Join(ts.Dir, name)); err != nil {
				panic(fmt.Sprintf("%s: trace export: %v", name, err))
			}
		}
	}
	if r.wantMice {
		// Before Summarize, whose percentiles sort the recorder in place.
		r.mice = c.Recorder.Mice().Samples()
	}
	r.sum = c.Recorder.Summarize()
}

// project aggregates the point's seed replicates, in seed order, into its
// Row: mean ± stderr across seeds of each run's digest or, for a CDF figure,
// the distribution of all seeds' mice flows together.
func (pt point) project(k kind) Row {
	row := pt.row
	across := func(metric func(*run) float64) (mean, stderr float64) {
		xs := make([]float64, len(pt.runs))
		for i, r := range pt.runs {
			xs[i] = metric(r)
		}
		return stats.MeanStderr(xs)
	}
	agg := &stats.FCTRecorder{}
	for _, r := range pt.runs {
		if r.timedOut {
			row.TimedOutRuns++
		}
		switch k {
		case incast:
			row.Samples += r.completed
		case miceCDF:
			for _, s := range r.mice {
				agg.Add(s.Size, s.FCT)
			}
		default:
			row.Samples += r.sum.Count
		}
	}
	switch k {
	case incast:
		row.GoodputBps, row.GoodputStderrBps = across(func(r *run) float64 { return r.goodput })
	case miceCDF:
		row.Samples, row.CDF, row.MeanFCTSec = agg.Count(), agg.CDF(20), agg.Mean()
		if agg.Count() > 0 {
			row.P99FCTSec = agg.Percentile(0.99)
		}
	default:
		row.MeanFCTSec, row.MeanFCTStderrSec = across(func(r *run) float64 { return r.sum.MeanSec })
		row.P99FCTSec, row.P99FCTStderrSec = across(func(r *run) float64 { return r.sum.P99Sec })
		row.MiceFCTSec, _ = across(func(r *run) float64 { return r.sum.MiceMeanSec })
		row.ElephFCTSec, _ = across(func(r *run) float64 { return r.sum.ElephMeanSec })
	}
	return row
}

// Run executes the specs as one plan — each distinct simulation once, on the
// worker pool, however many specs asked for it — and returns each spec's rows
// in grid order. A non-nil progress gets a line per run, in completion order.
func Run(sc Scale, specs []Spec, progress io.Writer) [][]Row {
	points, runs := newPlan(sc, specs)
	var mu sync.Mutex
	done, begin := 0, time.Now()
	runJobs(sc.Parallelism, len(runs), func(i int) {
		start := time.Now()
		runs[i].execute(sc.Telemetry)
		if progress == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		done++
		fmt.Fprintf(progress, "  [%d/%d] %s  (%.2fs, %.1fs elapsed)\n",
			done, len(runs), runs[i].names[0], time.Since(start).Seconds(), time.Since(begin).Seconds())
	})
	out := make([][]Row, len(specs))
	for si, pts := range points {
		for _, pt := range pts {
			out[si] = append(out[si], pt.project(specs[si].kind))
		}
	}
	return out
}
