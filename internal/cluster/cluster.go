// Package cluster composes the full simulated deployment: the leaf–spine
// fabric, one virtual switch per hypervisor running the selected
// load-balancing scheme, path discovery, tenant TCP/MPTCP endpoints, and
// the workload drivers (web-search load sweeps, incast, and the scenario
// blends of both) used by every experiment in the paper. The drivers share
// one job record (jobs.go) for arrivals, completion bookkeeping and the
// run's stop rule.
package cluster

import (
	"fmt"

	"clove/internal/clove"
	"clove/internal/conga"
	"clove/internal/discovery"
	"clove/internal/netem"
	"clove/internal/oracle"
	"clove/internal/packet"
	"clove/internal/sim"
	"clove/internal/stats"
	"clove/internal/tcp"
	"clove/internal/telemetry"
	"clove/internal/vswitch"
)

// Scheme selects the load-balancing algorithm under test.
type Scheme string

// The schemes evaluated in the paper (Secs. 5 and 6).
const (
	SchemeECMP        Scheme = "ecmp"
	SchemeEdgeFlowlet Scheme = "edge-flowlet"
	SchemeCloveECN    Scheme = "clove-ecn"
	SchemeCloveINT    Scheme = "clove-int"
	SchemePresto      Scheme = "presto"
	SchemeMPTCP       Scheme = "mptcp"
	SchemeCONGA       Scheme = "conga"
	SchemeLetFlow     Scheme = "letflow"
	// SchemeCloveLatency is the Sec. 7 extension: instead of ECN or INT,
	// the destination hypervisor reflects measured one-way path latency
	// (NIC timestamping + synchronized clocks), and new flowlets go to the
	// currently-fastest path.
	SchemeCloveLatency Scheme = "clove-latency"
	// SchemeConcury is the stateless edge design point (after Concury's
	// small-state L4 balancer): the encap source port is a pure consistent
	// hash over the five-tuple and a versioned bucket table, with no
	// per-flow state — per-connection consistency across path churn
	// instead of flowlet agility. Runs under the oracle's conn-consistency
	// invariant (see oracle.RequireConnConsistency).
	SchemeConcury Scheme = "concury"
	// SchemeCharon is the switch-assisted design point (a Charon-style
	// "smart fabric" midpoint between Clove-ECN and CONGA): leaf switches
	// stamp per-path load into transiting packets (netem's load-stamping
	// hook on top of the DRE/INT machinery), and the edge steers new
	// flowlets by power-of-two-choices over the reflected loads.
	SchemeCharon Scheme = "charon"
	// SchemeCloveUniform is a differential-testing reference, not a paper
	// scheme (it is deliberately absent from AllSchemes): plain round-robin
	// over discovered paths. Clove-ECN with frozen uniform weights must
	// behave byte-for-byte identically to it.
	SchemeCloveUniform Scheme = "clove-uniform"
	// SchemeConcuryRef and SchemeCharonRef are the reference twins of
	// SchemeConcury and SchemeCharon for differential testing (absent from
	// AllSchemes, like SchemeCloveUniform): the same scheme semantics
	// implemented by replaying the control-event history instead of
	// incremental state. A full run under either must be byte-for-byte
	// identical to its principal.
	SchemeConcuryRef Scheme = "concury-ref"
	SchemeCharonRef  Scheme = "charon-ref"
)

// AllSchemes lists every scheme in presentation order (the paper's eight,
// the Sec. 7 latency-feedback extension, and the two non-paper contenders —
// stateless Concury and switch-assisted Charon).
func AllSchemes() []Scheme {
	return []Scheme{SchemeECMP, SchemeEdgeFlowlet, SchemeCloveECN, SchemeCloveINT,
		SchemePresto, SchemeMPTCP, SchemeCONGA, SchemeLetFlow, SchemeCloveLatency,
		SchemeConcury, SchemeCharon}
}

// Config parameterizes a cluster.
type Config struct {
	Seed   int64
	Topo   netem.LeafSpineConfig
	Scheme Scheme

	// FlowletGap overrides the flowlet inter-packet gap (default: 1x base
	// RTT, the paper's best setting in Fig. 6).
	FlowletGap sim.Time
	// RelayInterval overrides the feedback relay spacing (default RTT/2).
	RelayInterval sim.Time
	// Beta overrides the weight-reduction fraction (default 1/3).
	Beta float64
	// PathsK is how many disjoint paths discovery selects (default 4).
	PathsK int
	// UseProber selects real traceroute discovery with periodic refresh;
	// false uses the oracle enumeration (identical result, instant, for
	// cheap benchmark setup).
	UseProber bool
	// ProbeInterval for periodic rediscovery when UseProber is set.
	ProbeInterval sim.Time
	// PrestoIdealWeights grants Presto the statically-correct asymmetric
	// path weights (Sec. 5.2 gives it this benefit of the doubt).
	PrestoIdealWeights bool
	// AsymmetricFailure takes the S2–L2 trunk down before traffic starts.
	AsymmetricFailure bool
	// AdaptiveFlowletGap lets the clove-latency scheme widen the flowlet
	// gap with the measured path-delay spread (Sec. 7 extension).
	AdaptiveFlowletGap bool
	// TenantECN gives tenant VM stacks RFC 3168 ECN response. Off by
	// default: the paper's 2017 tenant stacks run loss-based TCP without
	// ECN negotiation, and the fabric's ECN marks exist solely for the
	// hypervisor's consumption. (DCTCP-style tenants are the paper's
	// future-work discussion, reachable by setting this.)
	TenantECN bool
	// Oracle installs the correctness oracle (internal/oracle) on this run.
	// Observation never perturbs the simulation; call CheckOracle after the
	// run for the verdict.
	Oracle bool
	// Telemetry, when non-nil, installs the metrics/trace subsystem
	// (internal/telemetry): polled streams for queue occupancy, path weights,
	// cwnd, and sim load, plus event streams for retransmits, flowlets, and
	// FCTs. Nil (the default) leaves every hot-path hook behind a single nil
	// check, preserving the zero-allocation forwarding path.
	Telemetry *telemetry.Config
	// FreezeWeights disables Clove weight adaptation (WeightTableConfig
	// .Frozen) — differential tests only.
	FreezeWeights bool
	// ServersPerClient caps each client's persistent-connection fan-out in
	// RunMix's rotated mesh (0 = min(32, hosts on other leaves)); the
	// two-leaf full mesh would be quadratic at 1024 hosts.
	ServersPerClient int
}

// Cluster is a fully wired deployment ready to run workloads.
type Cluster struct {
	Cfg Config
	// Sim runs the whole cluster: every host, switch and workload schedules
	// on it.
	Sim *sim.Simulator
	// Eng is Sim.
	//
	// Deprecated: use Sim.
	Eng *sim.Simulator
	LS  *netem.LeafSpine

	VSwitches []*vswitch.VSwitch
	Conga     *conga.Fabric
	Probers   []*discovery.Prober
	Recorder  *stats.FCTRecorder
	// Oracle is the installed correctness oracle, nil unless Config.Oracle.
	Oracle *oracle.Oracle

	// trace is the run's tracer, nil unless Config.Telemetry.
	trace *telemetry.Tracer

	rtt    sim.Time
	tcpCfg tcp.Config
	// flows is the flow table every vswitch shares (vswitch.Config.Flows);
	// a connection's handles are opened with its transport.
	flows    vswitch.Flows
	conns    map[connKey]*Conn
	connList []*Conn // open order: what the tracer's cwnd stream samples
	nextPort uint16

	// loadScale multiplies the rate of every open-loop arrival chain;
	// scenario load-ramp events change it mid-run (see SetLoadScale).
	loadScale float64
}

type connKey struct {
	client, server packet.HostID
	idx            int
}

// New builds the cluster: topology, vswitches with the scheme's policy, and
// (for CONGA) the in-network fabric. Link failure, if configured, is applied
// before routing converges, as in the paper's asymmetric experiments.
//
// Every cluster, whatever its leaf count, runs on one Simulator seeded with
// Config.Seed, drawing packets from the topology's one pool (LS.Pool()).
func New(cfg Config) *Cluster {
	if cfg.Topo.Leaves == 0 {
		cfg.Topo = netem.PaperTestbed(0.01)
	}
	if cfg.PathsK == 0 {
		cfg.PathsK = 4
	}
	c := &Cluster{
		Cfg:       cfg,
		Recorder:  &stats.FCTRecorder{},
		conns:     map[connKey]*Conn{},
		nextPort:  10000,
		loadScale: 1,
	}
	c.Sim = sim.New(cfg.Seed)
	c.Eng = c.Sim
	c.LS = netem.BuildLeafSpine(c.Sim, cfg.Topo)
	if cfg.Telemetry != nil {
		c.trace = telemetry.NewTracer(c.Sim, *cfg.Telemetry)
	}
	ls := c.LS
	c.rtt = cfg.Topo.BaseRTT()
	// The oracle attaches before anything else happens (in particular before
	// FailPaperLink) so its link-state tracking observes every transition:
	// the observer on the topology's pool, the event hook on the Simulator.
	if cfg.Oracle {
		c.Oracle = oracle.New()
		ls.Pool().SetObserver(c.Oracle)
		c.Sim.SetEventHook(c.Oracle.AfterEvent)
		if connConsistent(cfg.Scheme) {
			c.Oracle.RequireConnConsistency()
		}
	}
	// Defaults match the paper's best settings (Fig. 6): flowlet gap of one
	// network RTT, feedback relay every half RTT (Sec. 3.2). The Fig. 6
	// parameter scan on this simulator reproduces the same optimum.
	if cfg.FlowletGap == 0 {
		c.Cfg.FlowletGap = c.rtt
	}
	if cfg.RelayInterval == 0 {
		c.Cfg.RelayInterval = c.rtt / 2
	}
	if cfg.Beta == 0 {
		c.Cfg.Beta = 1.0 / 3.0
	}
	c.tcpCfg = tcp.DefaultConfig()
	c.tcpCfg.Pool = ls.Pool()
	c.tcpCfg.ECN = cfg.TenantECN

	if cfg.AsymmetricFailure {
		ls.FailPaperLink()
	}

	vcfg := vswitch.Config{
		FlowletGap:    c.Cfg.FlowletGap,
		RelayInterval: c.Cfg.RelayInterval,
		Flows:         &c.flows,
	}
	switch cfg.Scheme {
	case SchemeCloveECN, SchemeCloveINT, SchemeCloveUniform:
		vcfg.MaskECN = true
		vcfg.RequestINT = cfg.Scheme == SchemeCloveINT
	case SchemeCloveLatency:
		vcfg.MaskECN = true
		vcfg.MeasureLatency = true
		vcfg.AdaptiveFlowletGap = cfg.AdaptiveFlowletGap
	default:
		vcfg.MaskECN = false
	}

	// Weight-table timescales key off the base RTT: congestion memory of a
	// few unloaded RTTs reacts at feedback timescales without smearing
	// stale state over the (longer) flowlet timescale.
	wtCfg := clove.DefaultWeightTableConfig(c.rtt)
	wtCfg.Beta = c.Cfg.Beta
	wtCfg.Frozen = cfg.FreezeWeights

	s := c.Sim
	c.VSwitches = make([]*vswitch.VSwitch, 0, len(ls.Hosts()))
	for _, h := range ls.Hosts() {
		var pol vswitch.PathPolicy
		switch cfg.Scheme {
		case SchemeECMP, SchemeMPTCP, SchemeCONGA, SchemeLetFlow:
			pol = vswitch.NewECMP()
		case SchemeEdgeFlowlet:
			pol = vswitch.NewEdgeFlowlet()
		case SchemeCloveECN:
			pol = vswitch.NewCloveECN(wtCfg)
		case SchemeCloveUniform:
			pol = vswitch.NewCloveUniform()
		case SchemeCloveINT, SchemeCloveLatency:
			// Both are "least reflected metric" policies: INT stamps max
			// link utilization; the latency variant reflects one-way delay.
			pol = vswitch.NewCloveINT(wtCfg, s.Now)
		case SchemePresto:
			pol = vswitch.NewPresto(s)
		case SchemeConcury:
			pol = vswitch.NewConcury()
		case SchemeConcuryRef:
			pol = vswitch.NewConcuryRef()
		case SchemeCharon:
			pol = vswitch.NewCharon(wtCfg.UtilAge, s.Now)
		case SchemeCharonRef:
			pol = vswitch.NewCharonRef(wtCfg.UtilAge, s.Now)
		default:
			panic(fmt.Sprintf("cluster: unknown scheme %q", cfg.Scheme))
		}
		c.VSwitches = append(c.VSwitches, vswitch.New(s, h, vcfg, pol))
	}

	switch cfg.Scheme {
	case SchemeCONGA:
		// Hardware flowlet detection runs at a finer timescale than the
		// software edge (the CONGA ASIC reroutes within a fraction of an
		// RTT); a quarter of the edge gap reproduces its advantage.
		c.Conga = conga.Attach(ls, conga.Config{FlowletGap: c.Cfg.FlowletGap / 4})
	case SchemeLetFlow:
		conga.AttachLetFlow(ls, c.Cfg.FlowletGap)
	case SchemeCharon, SchemeCharonRef:
		attachCharonStamping(ls)
	}
	c.setupTelemetry()
	return c
}

// attachCharonStamping turns on fabric-initiated load stamping at every
// leaf. The first-hop leaf enables INT on a data packet, and the ordinary
// stamping then records the max egress utilization across that hop and
// every later one — the same telemetry Clove-INT requests from the edge,
// initiated by the switches instead.
func attachCharonStamping(ls *netem.LeafSpine) {
	for _, sw := range ls.Leaves {
		sw.SetLoadStamp(true)
	}
}

// connConsistent reports whether scheme promises per-connection path
// stability (the oracle's conn-consistency invariant applies).
func connConsistent(s Scheme) bool {
	return s == SchemeConcury || s == SchemeConcuryRef
}

// RTT returns the unloaded base round-trip time of the fabric.
func (c *Cluster) RTT() sim.Time { return c.rtt }

// ScheduleControl schedules a control-plane action (scenario link flaps,
// load ramps) at absolute time at: after the events already scheduled there
// and before those scheduled later.
func (c *Cluster) ScheduleControl(at sim.Time, fn func()) { c.Sim.At(at, fn) }

// ExportTraces writes the run's trace files under dir. No-op when telemetry
// is disabled.
func (c *Cluster) ExportTraces(dir string) error { return c.trace.Export(dir) }

// SetLoadScale multiplies the arrival rate of every open-loop arrival chain
// (RunWebSearch's and RunMix's) from now on; 1 restores the configured
// load. It only affects inter-arrival gaps drawn after the call. Scenario
// load-ramp events call it on RunMix runs; nothing calls it on web-search
// runs.
func (c *Cluster) SetLoadScale(f float64) {
	if !(f > 0) {
		panic(fmt.Sprintf("cluster: load scale %v", f))
	}
	c.loadScale = f
}

// Quiesce stops every periodic process the cluster started — path probers
// and the telemetry sampling ticker — so that, once in-flight traffic
// settles (completing or being Conn.Abort-ed), the event queue can drain to
// empty: the state in which the oracle's conservation audit is exact
// (oracle.Check with 0 pending events reports any leaked packet).
func (c *Cluster) Quiesce() {
	for _, pr := range c.Probers {
		pr.Stop()
	}
	c.trace.Stop()
}

// needsPaths reports whether the scheme consumes discovered path sets.
func (c *Cluster) needsPaths() bool {
	switch c.Cfg.Scheme {
	case SchemeCloveECN, SchemeCloveINT, SchemeCloveLatency, SchemePresto, SchemeCloveUniform,
		SchemeConcury, SchemeConcuryRef, SchemeCharon, SchemeCharonRef:
		return true
	}
	return false
}

// CheckOracle returns the oracle's end-of-run verdict, nil when the oracle
// is not installed or found no violation.
func (c *Cluster) CheckOracle() error {
	if c.Oracle == nil {
		return nil
	}
	return c.Oracle.Check(c.Sim.Pending())
}

// SetupPaths installs path sets for every (src, dst) pair that will carry
// traffic, using either the oracle enumeration or the traceroute prober.
func (c *Cluster) SetupPaths(pairs [][2]packet.HostID) {
	if !c.needsPaths() {
		return
	}
	if c.Cfg.UseProber {
		dcfg := discovery.DefaultConfig(c.rtt)
		dcfg.K = c.Cfg.PathsK
		if c.Cfg.ProbeInterval > 0 {
			dcfg.Interval = c.Cfg.ProbeInterval
		}
		bySrc := map[packet.HostID][]packet.HostID{}
		var srcs []packet.HostID // first-appearance order: prober start order must be deterministic
		for _, p := range pairs {
			if _, ok := bySrc[p[0]]; !ok {
				srcs = append(srcs, p[0])
			}
			bySrc[p[0]] = append(bySrc[p[0]], p[1])
		}
		for _, src := range srcs {
			dsts := bySrc[src]
			pr := discovery.NewProber(c.Sim, c.VSwitches[src], dcfg)
			if c.Cfg.Scheme == SchemePresto && c.Cfg.PrestoIdealWeights {
				pr.OnPaths = func(dst packet.HostID, ports []uint16, paths []discovery.Path) {
					c.installPrestoWeights(src, dst, ports, paths)
				}
			}
			pr.Start(dsts)
			c.Probers = append(c.Probers, pr)
		}
		return
	}
	var w oracleWalk
	for _, p := range pairs {
		c.oracleInstall(&w, p[0], p[1])
	}
}

// installPrestoWeights derives the ideal static weights from path link
// overlap: a path's weight is inversely proportional to the number of
// selected paths sharing its most-shared link. On the paper's asymmetric
// topology this yields exactly (0.33, 0.33, 0.17, 0.17).
func (c *Cluster) installPrestoWeights(src, dst packet.HostID, ports []uint16, paths []discovery.Path) {
	use := map[packet.LinkID]int{}
	for _, p := range paths {
		for _, l := range fabricLinks(p.Links) {
			use[l]++
		}
	}
	weights := map[uint16]float64{}
	for _, p := range paths {
		maxShare := 1
		for _, l := range fabricLinks(p.Links) {
			if use[l] > maxShare {
				maxShare = use[l]
			}
		}
		weights[p.Port] = 1.0 / float64(maxShare)
	}
	pol := c.VSwitches[src].Policy().(*vswitch.Presto)
	pol.SetStaticWeights(dst, weights)
	c.VSwitches[src].SetPaths(dst, ports)
}

// fabricLinks drops the terminal leaf->host downlink every path shares.
func fabricLinks(links []packet.LinkID) []packet.LinkID {
	if len(links) <= 1 {
		return links
	}
	return links[:len(links)-1]
}
