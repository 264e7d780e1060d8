package cluster

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"clove/internal/netem"
	"clove/internal/sim"
	"clove/internal/telemetry"
)

// fourLeafTopo is a 4-leaf fabric (the smallest where RunMix builds its
// rotated mesh, so a client's servers sit on more than one remote leaf),
// non-oversubscribed like the paper testbed: 3 hosts/leaf at 10G, 2 spines
// x 1 trunk at 15G. The "sharded" names below are historical: the fabric
// once ran split into event domains, and now runs on one Simulator like
// every other.
func fourLeafTopo() netem.LeafSpineConfig {
	return netem.LeafSpineConfig{
		Leaves:        4,
		Spines:        2,
		TrunksPerPair: 1,
		HostsPerLeaf:  3,
		HostRateBps:   10e9,
		TrunkRateBps:  15e9,
		LinkDelay:     5 * sim.Microsecond,
		QueueCap:      netem.DefaultQueueCap,
		ECNK:          20,
	}
}

func fourLeafMix() MixParams {
	return MixParams{
		Load: 0.3, TotalJobs: 48, SizeScale: 0.02,
		FracWebSearch: 0.5, FracRPC: 0.2, FracML: 0.15, FracIncast: 0.15,
		IncastFanout: 3,
		MaxSimTime:   120 * sim.Second,
	}
}

// traceTree reads every exported trace file under dir into relpath -> bytes.
func traceTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	tree := map[string]string{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		tree[rel] = string(b)
		return nil
	})
	if err != nil {
		t.Fatalf("walk %s: %v", dir, err)
	}
	return tree
}

type runOutcome struct {
	res     MixResult
	samples []string
	mean    float64
	traces  map[string]string
	events  uint64
}

// digest folds the FCT sample stream and the exported trace tree (files in
// sorted path order) into one SHA-256, so a pin test can commit a whole
// run's observable output as a single value.
func (o runOutcome) digest() string {
	h := sha256.New()
	for _, s := range o.samples {
		io.WriteString(h, s+"\n")
	}
	names := make([]string, 0, len(o.traces))
	for name := range o.traces {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s\x00%d\x00", name, len(o.traces[name]))
		io.WriteString(h, o.traces[name])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// runTraced runs p on a cluster built from cfg with 1 ms telemetry and
// captures everything the determinism and pin tests compare.
func runTraced(t *testing.T, cfg Config, p MixParams) runOutcome {
	t.Helper()
	cfg.Telemetry = &telemetry.Config{Interval: sim.Millisecond}
	c := New(cfg)
	tag := string(cfg.Scheme)
	res := c.RunMix(p)
	if res.Completed == 0 {
		t.Fatalf("%s: nothing completed (issued %d)", tag, res.Issued)
	}
	if res.TimedOut {
		t.Fatalf("%s: timed out at %d/%d", tag, res.Completed, res.Issued)
	}
	// The figure tables experiments print are a pure function of the sample
	// stream, so pinning every (size, fct) pair pins the tables.
	out := runOutcome{res: res, mean: c.Recorder.Mean()}
	for _, s := range c.Recorder.Samples() {
		out.samples = append(out.samples, fmt.Sprintf("%d:%d", s.Size, int64(s.FCT)))
	}
	out.events = c.Sim.Processed()
	dir := t.TempDir()
	if err := c.ExportTraces(dir); err != nil {
		t.Fatalf("%s: export: %v", tag, err)
	}
	out.traces = traceTree(t, dir)
	return out
}

func runFourLeaf(t *testing.T, scheme Scheme, seed int64) runOutcome {
	t.Helper()
	return runTraced(t, Config{
		Seed: seed, Topo: fourLeafTopo(), Scheme: scheme, ServersPerClient: 4,
	}, fourLeafMix())
}

// runPin is one committed run: its event count and the digest of its sample
// stream plus trace tree.
type runPin struct {
	scheme Scheme
	events uint64
	digest string
}

func (pin runPin) check(t *testing.T, got runOutcome) {
	t.Helper()
	if got.events != pin.events {
		t.Errorf("processed %d events, pinned %d", got.events, pin.events)
	}
	if d := got.digest(); d != pin.digest {
		t.Errorf("digest %s, pinned %s", d, pin.digest)
	}
}

// TestShardedRunsPinned commits, per scheme, the event count and the digest
// of the sample stream plus trace tree of the four-component mix on the
// 4-leaf fabric. The values are those of the last sharded-engine code with
// its domain count forced to one; any change to them means a multi-leaf run
// no longer reproduces.
func TestShardedRunsPinned(t *testing.T) {
	for _, pin := range []runPin{
		{SchemeECMP, 12109, "8036a2c3c98179eccb9d3eb625c8277eb57f878c134c29b2b9f6c28af98ba471"},
		{SchemeEdgeFlowlet, 12109, "f78873063270303846cb4d91ae47519131d2212d66548568ceeb85bff181cb21"},
		{SchemeCloveECN, 12109, "574de3e072d7bd7a146ec9ae22875fcd2ddfcf9d4082b05c8192f7c1ca4f8bc8"},
		{SchemeCloveINT, 12109, "961f322f27f45a26647d9763ca42dd1b1185765a755f4706e2947d974f1e45a7"},
		{SchemePresto, 12109, "90586f1f329f315cf34f98ecdf421e1a729ef09391aebf510689826552d93596"},
		{SchemeMPTCP, 12109, "3416ba277e0030e48e63e0cd8be848a919350f71a7dae8004c8b02adff26e511"},
		{SchemeLetFlow, 24352, "21f6002733d8cb3906f9b4c8e7141690b99d54c2912ba134e75ed5cec0f4a45c"},
		{SchemeCloveLatency, 12109, "b7a3409091621a68a3564234d61cd407326912e124f3906f14a031bae4897981"},
		{SchemeConcury, 12109, "28f5af99a3bad513e95ad024a7d4c9790e681b6d5742ebc59c7e8654249b1d1a"},
		{SchemeCharon, 12109, "fcf4d9a48ae80f9efacb71cc34fbd0acce6e595d0b455abd1f3a2b6362924313"},
	} {
		pin := pin
		t.Run(string(pin.scheme), func(t *testing.T) {
			got := runFourLeaf(t, pin.scheme, 31)
			if got.res.Completed != 48 || got.res.Issued != 48 {
				t.Errorf("result %+v, want 48/48 jobs", got.res)
			}
			pin.check(t, got)
		})
	}
}

// TestTwoLeafTracePinned is the two-leaf counterpart: the same
// four-component mix on the two-leaf fabric, under a switch-resident scheme
// (letflow, whose per-switch state draws from the run's one RNG) and an
// edge scheme, pinned the same way.
func TestTwoLeafTracePinned(t *testing.T) {
	for _, pin := range []runPin{
		{SchemeLetFlow, 18539, "fc9f5dc5cd5462f3a5409184c60c9c5cd5bbd78d548107811d2fa75754602082"},
		{SchemeCloveECN, 12629, "47a706d42a2c4f3d169679e57f5e0b23ffaa05f35df0bc3e3ec5d5a2243d6cf7"},
	} {
		pin := pin
		t.Run(string(pin.scheme), func(t *testing.T) {
			pin.check(t, runTraced(t, Config{Seed: 31, Topo: smallTopo(), Scheme: pin.scheme}, fourLeafMix()))
		})
	}
}

// TestShardedOracleAuditsEveryEvent: on a 4-leaf run the oracle — observer
// on the topology's pool, event hook on the Simulator — counts every fired
// event (which drives its periodic live-counter audit) and ends clean. Torn
// down and drained the way the two-leaf teardown tests do, the run has then
// returned every packet to the topology's one pool.
func TestShardedOracleAuditsEveryEvent(t *testing.T) {
	c := New(Config{Seed: 31, Topo: fourLeafTopo(), Scheme: SchemeCloveECN,
		Oracle: true, ServersPerClient: 4})
	if res := c.RunMix(fourLeafMix()); res.Completed == 0 || res.TimedOut {
		t.Fatalf("bad run %+v", res)
	}
	if got, want := c.Oracle.Stats().Events, c.Sim.Processed(); got == 0 || got != want {
		t.Errorf("oracle audited %d events, simulator processed %d", got, want)
	}
	if err := c.CheckOracle(); err != nil {
		t.Errorf("oracle: %v", err)
	}
	c.AbortOpenConns()
	c.Quiesce()
	c.Sim.RunUntil(c.Sim.Now() + sim.Second)
	if p, pool := c.Sim.Pending(), c.LS.Pool(); p != 0 || pool.Gets() == 0 || pool.Gets() != pool.Puts() {
		t.Errorf("after teardown: %d events pending, pool issued %d packets and got %d back", p, pool.Gets(), pool.Puts())
	}
	if err := c.CheckOracle(); err != nil {
		t.Errorf("oracle after drain: %v", err)
	}
}

// TestDomainModeSeedPermutation checks a 4-leaf run is genuinely seeded:
// each seed reproduces itself exactly, and permuting seeds permutes outputs
// (no hidden shared stream making all seeds collapse to one trajectory).
func TestDomainModeSeedPermutation(t *testing.T) {
	a1 := runFourLeaf(t, SchemeCloveECN, 5)
	b1 := runFourLeaf(t, SchemeCloveECN, 6)
	// Re-run in the opposite order: results must depend only on the seed.
	b2 := runFourLeaf(t, SchemeCloveECN, 6)
	a2 := runFourLeaf(t, SchemeCloveECN, 5)
	if a1.mean != a2.mean || a1.res != a2.res {
		t.Errorf("seed 5 not reproducible: %v/%+v vs %v/%+v", a1.mean, a1.res, a2.mean, a2.res)
	}
	if b1.mean != b2.mean || b1.res != b2.res {
		t.Errorf("seed 6 not reproducible: %v/%+v vs %v/%+v", b1.mean, b1.res, b2.mean, b2.res)
	}
	if a1.mean == b1.mean {
		t.Error("seeds 5 and 6 gave identical means (suspicious)")
	}
}

// TestDomainModeWebSearchAndIncast: RunWebSearch and RunIncast run on a
// 4-leaf fabric exactly as on the two-leaf one — every job completes, and
// the oracle audits the run clean.
func TestDomainModeWebSearchAndIncast(t *testing.T) {
	cfg := Config{Seed: 1, Topo: fourLeafTopo(), Scheme: SchemeCloveECN, Oracle: true}
	t.Run("RunWebSearch", func(t *testing.T) {
		c := New(cfg)
		p := smallWS(0.4)
		p.TotalJobs = 60
		if res := c.RunWebSearch(p); res.TimedOut || res.Completed != 60 {
			t.Fatalf("%+v, want 60 jobs completed", res)
		}
		if err := c.CheckOracle(); err != nil {
			t.Errorf("oracle: %v", err)
		}
	})
	t.Run("RunIncast", func(t *testing.T) {
		c := New(cfg)
		res := c.RunIncast(IncastParams{Fanout: 3, ResponseBytes: 100_000, Requests: 5, MaxSimTime: 120 * sim.Second})
		if res.TimedOut || res.Completed != 5 || res.Bytes != 5*3*(100_000/3) {
			t.Fatalf("%+v, want 5 requests of 3 shards completed", res)
		}
		if err := c.CheckOracle(); err != nil {
			t.Errorf("oracle: %v", err)
		}
	})
}

// TestShardedCongaOracleClean: CONGA's tables are per switch and its
// feedback rides in packets, so a 4-leaf run completes every job, feeds
// congestion back between leaves, and audits clean.
func TestShardedCongaOracleClean(t *testing.T) {
	c := New(Config{Seed: 31, Topo: fourLeafTopo(), Scheme: SchemeCONGA, Oracle: true, ServersPerClient: 4})
	if res := c.RunMix(fourLeafMix()); res.TimedOut || res.Completed != 48 {
		t.Fatalf("%+v, want 48 jobs completed", res)
	}
	if st := c.Conga.Stats(); st.FeedbackSent == 0 || st.MetricsLearned == 0 {
		t.Errorf("no congestion feedback between leaves: %+v", st)
	}
	if err := c.CheckOracle(); err != nil {
		t.Errorf("oracle: %v", err)
	}
}

// TestDomainModeSchemes smoke-runs each scheme end to end on the 4-leaf
// fabric.
func TestDomainModeSchemes(t *testing.T) {
	for _, scheme := range AllSchemes() {
		scheme := scheme
		t.Run(string(scheme), func(t *testing.T) {
			c := New(Config{
				Seed: 9, Topo: fourLeafTopo(), Scheme: scheme, ServersPerClient: 3,
			})
			p := fourLeafMix()
			p.TotalJobs = 24
			res := c.RunMix(p)
			if res.Completed == 0 || res.TimedOut {
				t.Fatalf("%s: %+v", scheme, res)
			}
			if c.Recorder.Count() != res.Completed {
				t.Errorf("recorder has %d, completed %d", c.Recorder.Count(), res.Completed)
			}
		})
	}
}

// TestShardedCloveSteersUnderAsymmetry is ROADMAP item 1(d)'s
// discriminating fixture: on a 4-leaf fabric with the paper's failed trunk,
// Clove-ECN must hear congestion feedback on every seed and turn it into a
// shorter mean FCT than ECMP's. One seed is a noisy draw (seed 1 at load 0.5
// gives 1.059x), so the 1.10x floor applies to the gain averaged over seeds
// 1–10. (On the k16 benchmark scenario the two tie because that fixture
// barely congests, not because multi-leaf Clove cannot steer.)
func TestShardedCloveSteersUnderAsymmetry(t *testing.T) {
	if testing.Short() {
		t.Skip("40 runs; skipped under -short")
	}
	topo := netem.ScaledTestbed(1.0, 4)
	topo.Leaves = 4
	run := func(t *testing.T, scheme Scheme, seed int64, load float64) (mean float64, feedback int64) {
		c := New(Config{Seed: seed, Topo: topo, Scheme: scheme, AsymmetricFailure: true})
		res := c.RunMix(MixParams{Load: load, TotalJobs: 1500, SizeScale: 0.1, FracWebSearch: 1})
		if res.TimedOut || res.Completed == 0 || res.Completed != res.Issued {
			t.Fatalf("%s seed %d load %.1f: %+v", scheme, seed, load, res)
		}
		for _, v := range c.VSwitches {
			feedback += v.Stats().FeedbackReceived
		}
		return c.Recorder.Mean(), feedback
	}
	for _, load := range []float64{0.5, 0.7} {
		load := load
		t.Run(fmt.Sprintf("load%.1f", load), func(t *testing.T) {
			t.Parallel()
			const seeds = 10
			var sum float64
			for seed := int64(1); seed <= seeds; seed++ {
				ecmp, _ := run(t, SchemeECMP, seed, load)
				clove, feedback := run(t, SchemeCloveECN, seed, load)
				gain := ecmp / clove
				sum += gain
				t.Logf("seed %2d: ECMP %.6fs, Clove-ECN %.6fs, gain %.3fx, %d feedbacks", seed, ecmp, clove, gain, feedback)
				if feedback == 0 {
					t.Errorf("seed %d: Clove-ECN received no feedback", seed)
				}
			}
			mean := sum / seeds
			t.Logf("gain averaged over seeds 1-%d: %.3fx", seeds, mean)
			if mean < 1.10 {
				t.Errorf("Clove-ECN mean FCT gain over ECMP averaged over seeds 1-%d = %.3fx, want >= 1.10x", seeds, mean)
			}
		})
	}
}
