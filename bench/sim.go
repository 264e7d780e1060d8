package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"clove/internal/cluster"
	"clove/internal/netem"
	"clove/internal/scenario"
	"clove/internal/stats"
	"clove/internal/telemetry"
)

// counters are the per-layer work counts of one simulation run, read from
// the modules' exported stats after it ends.
type counters struct {
	pktsTx, drops, ecnMarks         int64 // netem: sums of LinkStats
	segments, retransmits, timeouts int64 // tcp: Cluster.TransportStats
	encaps, flowlets, feedback      int64 // vswitch: summed VSwitch.Stats
	poolGets                        int64 // packet: Pool.Gets over every pool
}

func (k *counters) add(o counters) {
	k.pktsTx += o.pktsTx
	k.drops += o.drops
	k.ecnMarks += o.ecnMarks
	k.segments += o.segments
	k.retransmits += o.retransmits
	k.timeouts += o.timeouts
	k.encaps += o.encaps
	k.flowlets += o.flowlets
	k.feedback += o.feedback
	k.poolGets += o.poolGets
}

func gather(c *cluster.Cluster) counters {
	var k counters
	for _, l := range c.LS.Links() {
		st := l.Stats()
		k.pktsTx += st.TxPackets
		k.drops += st.Drops + st.DownDrops
		k.ecnMarks += st.ECNMarks
	}
	ts := c.TransportStats()
	k.segments, k.retransmits, k.timeouts = ts.SegmentsSent, ts.Retransmits, ts.Timeouts
	for _, v := range c.VSwitches {
		st := v.Stats()
		k.encaps += st.Encapped
		k.feedback += st.FeedbackReceived
		k.flowlets += v.Flowlets()
	}
	for _, p := range c.LS.Pools() {
		k.poolGets += p.Gets()
	}
	return k
}

// simRun is one (scheme, seed) simulation: what a row of a result table
// costs and says.
type simRun struct {
	scheme            cluster.Scheme
	wall              time.Duration
	events            uint64
	sum               stats.Summary
	issued, completed int
	timedOut          bool
	mallocs           uint64 // heap objects allocated while the workload driver ran
	cnt               counters
}

func events(c *cluster.Cluster) uint64 {
	if c.Eng != nil {
		return c.Eng.Processed()
	}
	return c.Sim.Processed()
}

// simUnit is one repetition of a simulator workload's repeated unit.
type simUnit struct {
	wall   time.Duration
	traced bool
	runs   []simRun
}

func (u simUnit) events() uint64 {
	var n uint64
	for _, r := range u.runs {
		n += r.events
	}
	return n
}

func (u simUnit) mallocs() uint64 {
	var n uint64
	for _, r := range u.runs {
		n += r.mallocs
	}
	return n
}

// unitWalls returns the wall seconds of the traced, or the untraced, units.
func unitWalls(units []simUnit, traced bool) []float64 {
	var walls []float64
	for _, u := range units {
		if u.traced == traced {
			walls = append(walls, u.wall.Seconds())
		}
	}
	return walls
}

func (u simUnit) counters() counters {
	var k counters
	for _, r := range u.runs {
		k.add(r.cnt)
	}
	return k
}

// measureUnits repeats unit until the budget is spent (to the nearest whole
// unit) and returns the units with the CPU time they took. In a traced run
// every second unit records spans, so the same invocation prices tracing.
func (r *run) measureUnits(unit func(parent int) ([]simRun, error)) ([]simUnit, time.Duration, error) {
	minUnits := 1
	if r.traced {
		minUnits = 2
	}
	var units []simUnit
	u0 := readUsage()
	start := time.Now()
	for i := 0; ; i++ {
		r.tr.enable(r.traced && i%2 == 1, i)
		t0 := time.Now()
		root := r.tr.begin("unit", -1)
		runs, err := unit(root)
		r.tr.end(root)
		wall := time.Since(t0)
		if err != nil {
			return nil, 0, err
		}
		units = append(units, simUnit{wall: wall, traced: r.tr.on.Load(), runs: runs})
		// A user runs one unit per process: collect this unit's clusters
		// before the next, so that peak RSS is one unit's, not their sum.
		runtime.GC()
		elapsed := time.Since(start)
		if len(units) >= minUnits && elapsed+elapsed/time.Duration(2*len(units)) >= r.budget {
			break
		}
	}
	r.tr.enable(false, 0)
	return units, readUsage().cpu() - u0.cpu(), nil
}

// simEndToEnd derives the end-to-end metrics from the untraced units, and
// checks what every simulation must satisfy: all jobs complete, no run times
// out, and every repetition (same seed) gives identical summaries and event
// counts.
func (r *run) simEndToEnd(units []simUnit, cpu time.Duration) {
	var perMEvents []float64
	var totalEvents uint64
	for _, u := range units {
		totalEvents += u.events()
		if !u.traced {
			for _, sr := range u.runs {
				perMEvents = append(perMEvents, float64(sr.wall.Nanoseconds())/1e3/(float64(sr.events)/1e6))
			}
		}
		for i, sr := range u.runs {
			r.ops(int64(sr.issued), int64(sr.issued-sr.completed), fmt.Sprintf("%s jobs", sr.scheme))
			r.check(!sr.timedOut, "%s timed out", sr.scheme)
			ref := units[0].runs[i]
			r.check(sr.sum == ref.sum && sr.events == ref.events,
				"%s differs between repetitions: %v (%d events) vs %v (%d events)", sr.scheme, sr.sum, sr.events, ref.sum, ref.events)
		}
	}
	wall := median(unitWalls(units, false))
	r.e2e["ops_per_s"] = float64(units[0].events()) / wall
	r.layer["cluster.cpu_ns_per_event"] = float64(cpu.Nanoseconds()) / float64(totalEvents)
	r.e2e["latency_p50_us"] = median(perMEvents)
	r.logf("%d units of %d runs, %d events each; unit wall median %.3f s", len(units), len(units[0].runs), units[0].events(), wall)
}

// simMicros are the micro-driver prices the simulator ledger needs.
type simMicros struct {
	event, getput        float64
	hop, segment         microCost
	wrr, oncong, touch   float64
	hopSelf, segmentSelf float64
}

func (r *run) runSimMicros() simMicros {
	b := r.sc.micro
	m := simMicros{event: microSimEvent(b), getput: microPoolGetPut(b), hop: microNetemHop(b), segment: microTCPSegment(b)}
	m.wrr, m.oncong, m.touch = cloveMicros(b)
	// A layer's own share of its micro cost: without the events and pool
	// traffic it contains, which the ledger charges to sim and packet.
	m.hopSelf = m.hop.ns - m.hop.events*m.event - m.hop.gets*m.getput
	m.segmentSelf = m.segment.ns - m.segment.events*m.event - m.segment.gets*m.getput
	r.layer["sim.event_ns"] = m.event
	r.layer["packet.pool_getput_ns"] = m.getput
	r.layer["netem.hop_ns"] = m.hop.ns
	r.layer["tcp.segment_ns"] = m.segment.ns
	r.layer["clove.wrr_next_ns"] = m.wrr
	r.layer["clove.on_congestion_ns"] = m.oncong
	r.layer["clove.flowlet_touch_ns"] = m.touch
	return m
}

// simLayers fills the per-layer metrics common to both simulator workloads
// from one unit: the exact work counts, and the ledger's honesty line —
// measured ns/event minus what counts x micro prices explain.
func (r *run) simLayers(units []simUnit, m simMicros) {
	u := units[0]
	k, ev := u.counters(), float64(u.events())
	r.layer["netem.pkts_tx"] = float64(k.pktsTx)
	r.layer["netem.drops"] = float64(k.drops)
	r.layer["netem.ecn_marks"] = float64(k.ecnMarks)
	r.layer["tcp.segments"] = float64(k.segments)
	r.layer["tcp.retransmits"] = float64(k.retransmits)
	r.layer["tcp.timeouts"] = float64(k.timeouts)
	r.layer["vswitch.encaps"] = float64(k.encaps)
	r.layer["vswitch.flowlets"] = float64(k.flowlets)
	r.layer["vswitch.feedback"] = float64(k.feedback)
	// To four decimals the ratio repeats exactly; beyond them it counts the
	// handful of objects the Go runtime allocates for itself during a run.
	r.layer["packet.mallocs_per_event"] = math.Round(1e4*float64(u.mallocs())/ev) / 1e4

	wall := median(unitWalls(units, false))
	r.layer["cluster.unit_wall_s"] = wall
	r.layer["trace.overhead_frac"] = median(unitWalls(units, true))/wall - 1

	explained := ev*m.event + float64(k.poolGets)*m.getput +
		float64(k.pktsTx)*m.hopSelf + float64(k.segments)*m.segmentSelf +
		float64(k.encaps)*m.touch + float64(k.flowlets)*m.wrr + float64(k.feedback)*m.oncong
	r.layer["cluster.unattributed_ns_per_event"] = (wall*1e9 - explained) / ev
	r.layer["cluster.build_ms"] = median(r.tr.durations("cluster.New")) / 1e6
}

// span wraps one call into a layer.
func (r *run) span(name string, parent int, fn func()) {
	id := r.tr.begin(name, parent)
	fn()
	r.tr.end(id)
}

func simWebSearchAsym(r *run) error {
	schemes := cluster.AllSchemes()
	cfgFor := func(s cluster.Scheme) cluster.Config {
		return cluster.Config{Seed: r.seed, Topo: netem.ScaledTestbed(1.0, 4), Scheme: s, AsymmetricFailure: true}
	}
	params := cluster.WebSearchParams{Load: 0.7, TotalJobs: r.sc.wsJobs, SizeScale: 0.1, ConnsPerClient: 1}

	// Set-up is building the 11 clusters; a build is ~0.1 ms, so it is
	// repeated often enough for a steady median.
	_ = r.setupPhase(20*r.sc.setupReps+1, func() (func(), error) { // this set-up cannot fail
		root := r.tr.begin("setup", -1)
		for _, s := range schemes {
			r.span("cluster.New", root, func() { cluster.New(cfgFor(s)) })
		}
		r.tr.end(root)
		return nil, nil
	})

	one := func(parent int, cfg cluster.Config) (simRun, *cluster.Cluster) {
		t0 := time.Now()
		var c *cluster.Cluster
		var res cluster.WebSearchResult
		sr := simRun{scheme: cfg.Scheme}
		r.span("cluster.New", parent, func() { c = cluster.New(cfg) })
		m0 := mallocs()
		r.span("cluster.RunWebSearch", parent, func() { res = c.RunWebSearch(params) })
		sr.mallocs = mallocs() - m0
		r.span("stats.Summarize", parent, func() { sr.sum = c.Recorder.Summarize() })
		sr.wall, sr.events = time.Since(t0), events(c)
		sr.issued, sr.completed, sr.timedOut = res.Issued, res.Completed, res.TimedOut
		sr.cnt = gather(c)
		return sr, c
	}
	units, cpu, err := r.measureUnits(func(parent int) ([]simRun, error) {
		runs := make([]simRun, 0, len(schemes))
		for _, s := range schemes {
			sr, _ := one(parent, cfgFor(s))
			runs = append(runs, sr)
		}
		return runs, nil
	})
	if err != nil {
		return err
	}
	if err := r.recordPeakRSS(); err != nil {
		return err
	}
	r.simEndToEnd(units, cpu)

	byScheme := map[cluster.Scheme]simRun{}
	for _, sr := range units[0].runs {
		byScheme[sr.scheme] = sr
	}
	ref := byScheme[cluster.SchemeCloveECN]

	// One Clove-ECN run under the oracle: it must pass, and observing must
	// not change the result.
	ocfg := cfgFor(cluster.SchemeCloveECN)
	ocfg.Oracle = true
	osr, oc := one(-1, ocfg)
	oerr := oc.CheckOracle()
	r.check(oerr == nil, "oracle: %v", oerr)
	r.check(osr.sum == ref.sum, "oracle run differs: %v vs %v", osr.sum, ref.sum)
	r.logf("clove-ecn %v; fct gain over ecmp %.4f", ref.sum, byScheme[cluster.SchemeECMP].sum.MeanSec/ref.sum.MeanSec)

	if !r.traced {
		return nil
	}
	m := r.runSimMicros()
	r.simLayers(units, m)
	r.layer["cluster.fct_gain"] = byScheme[cluster.SchemeECMP].sum.MeanSec / ref.sum.MeanSec
	for _, s := range schemes {
		var per []float64
		for _, u := range units {
			for _, sr := range u.runs {
				if sr.scheme == s {
					per = append(per, float64(sr.wall.Nanoseconds())/float64(sr.events))
				}
			}
		}
		r.layer["cluster.ns_per_event."+string(s)] = median(per)
	}
	// Clove-ECN's plain wall time, against the same run with each
	// observation layer on.
	var plain []float64
	for _, u := range units {
		for _, sr := range u.runs {
			if sr.scheme == cluster.SchemeCloveECN {
				plain = append(plain, sr.wall.Seconds())
			}
		}
	}
	base := median(plain)
	r.layer["oracle.overhead_frac"] = osr.wall.Seconds()/base - 1
	tcfg := cfgFor(cluster.SchemeCloveECN)
	tcfg.Telemetry = &telemetry.Config{}
	tsr, _ := one(-1, tcfg)
	r.check(tsr.sum == ref.sum, "telemetry run differs: %v vs %v", tsr.sum, ref.sum)
	r.layer["telemetry.overhead_frac"] = tsr.wall.Seconds()/base - 1
	return nil
}

// k16Opts selects one run of the fat-tree-k16-mixed scenario.
type k16Opts struct {
	scheme        cluster.Scheme
	workers       int
	oracle, quick bool // quick: the scenario's CI-scale shrink (Spec.Quick)
}

// k16Build is the scenario's set-up: load and compile the spec, build the
// cluster, schedule the event script.
func (r *run) k16Build(parent int, o k16Opts) (*scenario.Spec, *cluster.Cluster, error) {
	var sp *scenario.Spec
	var err error
	r.span("scenario.Load", parent, func() { sp, err = scenario.Load("fat-tree-k16-mixed") })
	if err != nil {
		return nil, nil, err
	}
	if o.quick {
		sp = sp.Quick()
	}
	var c *cluster.Cluster
	r.span("cluster.New", parent, func() {
		c = cluster.New(sp.ClusterConfig(string(o.scheme), r.seed, o.oracle, nil, o.workers))
	})
	r.span("scenario.InstallEvents", parent, func() { sp.InstallEvents(c) })
	return sp, c, nil
}

// k16Run is one whole scenario run: set-up, RunMix, Summarize.
func (r *run) k16Run(parent int, o k16Opts) (simRun, *cluster.Cluster, error) {
	t0 := time.Now()
	sp, c, err := r.k16Build(parent, o)
	if err != nil {
		return simRun{}, nil, err
	}
	var res cluster.MixResult
	sr := simRun{scheme: o.scheme}
	m0 := mallocs()
	r.span("cluster.RunMix", parent, func() { res = c.RunMix(sp.MixParams()) })
	sr.mallocs = mallocs() - m0
	r.span("stats.Summarize", parent, func() { sr.sum = c.Recorder.Summarize() })
	sr.wall, sr.events = time.Since(t0), events(c)
	sr.issued, sr.completed, sr.timedOut = res.Issued, res.Completed, res.TimedOut
	sr.cnt = gather(c)
	return sr, c, nil
}

func simFatTreeK16(r *run) error {
	base := k16Opts{scheme: cluster.SchemeCloveECN, workers: r.nproc, quick: r.sc.k16Quick}
	err := r.setupPhase(3*r.sc.setupReps, func() (func(), error) {
		root := r.tr.begin("setup", -1)
		_, _, err := r.k16Build(root, base)
		r.tr.end(root)
		return nil, err
	})
	if err != nil {
		return err
	}
	units, cpu, err := r.measureUnits(func(parent int) ([]simRun, error) {
		sr, _, err := r.k16Run(parent, base)
		return []simRun{sr}, err
	})
	if err != nil {
		return err
	}
	if err := r.recordPeakRSS(); err != nil {
		return err
	}
	r.simEndToEnd(units, cpu)
	ref := units[0].runs[0]

	// The oracle at full scale costs a whole unit more, so it checks the
	// same sharded machinery on the scenario's CI-scale shrink.
	osr, oc, err := r.k16Run(-1, k16Opts{scheme: cluster.SchemeCloveECN, workers: r.nproc, oracle: true, quick: true})
	if err != nil {
		return err
	}
	oerr := oc.CheckOracle()
	r.check(oerr == nil, "oracle: %v", oerr)
	r.check(osr.completed == osr.issued && !osr.timedOut, "oracle run completed %d of %d jobs", osr.completed, osr.issued)
	r.logf("clove-ecn %v", ref.sum)

	if !r.traced {
		return nil
	}
	m := r.runSimMicros()
	r.simLayers(units, m)
	unitNsPerEvent := r.layer["cluster.unit_wall_s"] * 1e9 / float64(ref.events)
	r.layer["scenario.load_compile_ms"] = (median(r.tr.durations("scenario.Load")) + median(r.tr.durations("scenario.InstallEvents"))) / 1e6
	r.layer["cluster.ns_per_event.clove-ecn"] = unitNsPerEvent

	// One worker against nproc: rows must be identical, and the ratio of
	// wall times is the engine's speed-up on this machine.
	one := base
	one.workers = 1
	w1, _, err := r.k16Run(-1, one)
	if err != nil {
		return err
	}
	r.check(w1.sum == ref.sum && w1.events == ref.events, "1 worker and %d workers differ: %v vs %v", r.nproc, w1.sum, ref.sum)
	r.layer["sim.engine.events"] = float64(ref.events)
	r.layer["sim.engine.ns_per_event"] = unitNsPerEvent
	r.layer["sim.engine.w1_wall_s"] = w1.wall.Seconds()
	r.layer["sim.engine.speedup"] = w1.wall.Seconds() / r.layer["cluster.unit_wall_s"]

	// ECMP once (one worker: rows do not depend on the worker count) for the
	// scenario's FCT gain.
	one.scheme = cluster.SchemeECMP
	ecmp, _, err := r.k16Run(-1, one)
	if err != nil {
		return err
	}
	r.ops(int64(ecmp.issued), int64(ecmp.issued-ecmp.completed), "ecmp jobs")
	r.layer["cluster.fct_gain"] = ecmp.sum.MeanSec / ref.sum.MeanSec
	return nil
}
