package scenario

import (
	"fmt"
	"sort"

	"clove/internal/cluster"
	"clove/internal/netem"
	"clove/internal/sim"
	"clove/internal/telemetry"
)

// TopoConfig lowers the fat-tree slice onto the simulator's leaf-spine
// Clos: K/2 spines, per-tier delays, and trunks thinned by the
// oversubscription ratio so hosts×hostRate = spines×trunks×trunkRate×ratio.
// Specs with more than 2 leaves build the sharded (event-domain) fabric.
func (s *Spec) TopoConfig() netem.LeafSpineConfig {
	t := s.Topology
	return netem.LeafSpineConfig{
		Leaves:        t.Leaves,
		Spines:        t.K / 2,
		TrunksPerPair: t.TrunksPerPair,
		HostsPerLeaf:  t.HostsPerLeaf,
		HostRateBps:   int64(t.HostGbps * 1e9 * t.RateScale),
		TrunkRateBps:  int64(s.scaledTrunkBps()),
		LinkDelay:     usToSim(t.EdgeDelayUs),
		TrunkDelay:    usToSim(t.FabricDelayUs),
		QueueCap:      netem.DefaultQueueCap,
		ECNK:          20,
	}
}

// ClusterConfig builds the cluster config for one (scheme, seed) run of
// this scenario. The unnamed int is ignored: it was the engine worker count,
// and bench/ (which product PRs may not edit) still passes it.
func (s *Spec) ClusterConfig(scheme string, seed int64, oracle bool, tcfg *telemetry.Config, _ int) cluster.Config {
	return cluster.Config{
		Seed:             seed,
		Topo:             s.TopoConfig(),
		Scheme:           cluster.Scheme(scheme),
		Oracle:           oracle,
		Telemetry:        tcfg,
		ServersPerClient: s.Workload.ServersPerClient,
	}
}

// MixParams lowers the workload section for cluster.RunMix.
func (s *Spec) MixParams() cluster.MixParams {
	w := s.Workload
	return cluster.MixParams{
		Load:          w.Load,
		TotalJobs:     w.TotalJobs,
		SizeScale:     w.SizeScale,
		FracWebSearch: w.Mix.WebSearch,
		FracRPC:       w.Mix.RPC,
		FracML:        w.Mix.ML,
		FracIncast:    w.Mix.Incast,
		IncastFanout:  w.IncastFanout,
		IncastBytes:   w.IncastBytes,
		MLBytes:       w.MLBytes,
		MaxSimTime:    msToSim(w.MaxTimeMs),
		Warmup:        msToSim(w.WarmupMs),
	}
}

// ActionKind is a primitive scripted operation after storm expansion.
type ActionKind string

// The primitive action kinds.
const (
	ActionLinkUp     ActionKind = "link-up"
	ActionLinkDown   ActionKind = "link-down"
	ActionLinkRate   ActionKind = "link-rate"
	ActionSwitchUp   ActionKind = "switch-up"
	ActionSwitchDown ActionKind = "switch-down"
	ActionLoadScale  ActionKind = "load-scale"
)

// Action is one primitive timeline entry: what Actions expands the event
// script (storms included) into, and exactly what InstallEvents schedules.
type Action struct {
	At      sim.Time
	Kind    ActionKind
	Link    LinkRef // link actions
	Switch  string  // switch actions
	RateBps int64   // link-rate
	Scale   float64 // load-scale
}

// String renders an action for logs and expansion tests.
func (a Action) String() string {
	switch a.Kind {
	case ActionLinkUp, ActionLinkDown:
		return fmt.Sprintf("%v %s %s-%s#%d", a.At, a.Kind, a.Link.A, a.Link.B, a.Link.Trunk)
	case ActionLinkRate:
		return fmt.Sprintf("%v %s %s-%s#%d %dbps", a.At, a.Kind, a.Link.A, a.Link.B, a.Link.Trunk, a.RateBps)
	case ActionSwitchUp, ActionSwitchDown:
		return fmt.Sprintf("%v %s %s", a.At, a.Kind, a.Switch)
	default:
		return fmt.Sprintf("%v %s %g", a.At, a.Kind, a.Scale)
	}
}

// Actions expands the event script into a flat primitive timeline, sorted by
// time (stable: expansion order breaks ties, so the schedule is fully
// deterministic). A storm staggers its links across one period and flaps
// each down for half a period at a time until the storm window closes, when
// every link is restored.
func (s *Spec) Actions() []Action {
	var acts []Action
	for i := range s.Events {
		e := &s.Events[i]
		at := msToSim(e.AtMs)
		switch e.Type {
		case EventLinkDown:
			acts = append(acts, Action{At: at, Kind: ActionLinkDown, Link: *e.Link})
		case EventLinkUp:
			acts = append(acts, Action{At: at, Kind: ActionLinkUp, Link: *e.Link})
		case EventLinkRate:
			rate := int64(e.RateGbps * 1e9 * s.Topology.RateScale)
			acts = append(acts, Action{At: at, Kind: ActionLinkRate, Link: *e.Link, RateBps: rate})
		case EventSwitchDown:
			acts = append(acts, Action{At: at, Kind: ActionSwitchDown, Switch: e.Switch})
		case EventSwitchUp:
			acts = append(acts, Action{At: at, Kind: ActionSwitchUp, Switch: e.Switch})
		case EventLoadScale:
			acts = append(acts, Action{At: at, Kind: ActionLoadScale, Scale: e.Scale})
		case EventStorm:
			acts = append(acts, expandStorm(at, e.Storm)...)
		}
	}
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].At < acts[j].At })
	return acts
}

// expandStorm lowers one storm block: link i starts flapping period*i/n into
// the storm, goes down for half a period, and comes back up — repeatedly —
// with the final recovery clamped to the storm end, so the fabric leaves the
// storm fully healed.
func expandStorm(at sim.Time, st *StormSpec) []Action {
	period := msToSim(st.PeriodMs)
	end := at + msToSim(st.DurationMs)
	n := sim.Time(len(st.Links))
	var acts []Action
	for i, link := range st.Links {
		start := at + period*sim.Time(i)/n
		for t := start; t < end; t += period {
			up := t + period/2
			if up > end {
				up = end
			}
			acts = append(acts,
				Action{At: t, Kind: ActionLinkDown, Link: link},
				Action{At: up, Kind: ActionLinkUp, Link: link},
			)
		}
	}
	return acts
}

// InstallEvents schedules the expanded timeline on the cluster; call before
// the workload driver runs (sim time 0). Each action becomes an ordinary
// deterministic simulator event — a global barrier event on sharded
// clusters, where control actions touch many domains at once — so scripted
// runs keep the oracle, telemetry, and parallel-run byte-identity
// guarantees of unscripted ones.
func (s *Spec) InstallEvents(c *cluster.Cluster) {
	for _, a := range s.Actions() {
		a := a
		c.ScheduleControl(a.At, func() { a.Apply(c) })
	}
}

// Apply performs the action on a live cluster.
func (a Action) Apply(c *cluster.Cluster) {
	switch a.Kind {
	case ActionLinkDown:
		c.LS.SetLinkPairUp(a.Link.A, a.Link.B, a.Link.Trunk, false)
	case ActionLinkUp:
		c.LS.SetLinkPairUp(a.Link.A, a.Link.B, a.Link.Trunk, true)
	case ActionLinkRate:
		c.LS.SetLinkPairRate(a.Link.A, a.Link.B, a.Link.Trunk, a.RateBps)
	case ActionSwitchDown:
		c.LS.SetSwitchUp(a.Switch, false)
	case ActionSwitchUp:
		c.LS.SetSwitchUp(a.Switch, true)
	case ActionLoadScale:
		c.SetLoadScale(a.Scale)
	default:
		panic(fmt.Sprintf("scenario: unknown action kind %q", a.Kind))
	}
}

// Quick shrinks the scenario to CI scale: at most 4 leaves and 4 hosts per
// leaf, 240 jobs, and one seed. Arrival rates track the bisection, so
// per-client load — and with it the event-script timeline — stays
// meaningful. Sharded specs stay sharded (the leaf floor is 4 when leaves
// exceed 2), so the quick run exercises the same domain-mode machinery;
// events referencing leaves the shrink removed are dropped.
func (s *Spec) Quick() *Spec {
	q := s.Clone()
	if q.Topology.Leaves > 4 {
		q.Topology.Leaves = 4
		q.Events = dropMissingLeafEvents(q.Events, 4)
	}
	if q.Topology.HostsPerLeaf > 4 {
		q.Topology.HostsPerLeaf = 4
	}
	if q.Workload.TotalJobs > 240 {
		q.Workload.TotalJobs = 240
	}
	if len(q.Seeds) > 1 {
		q.Seeds = q.Seeds[:1]
	}
	if q.Workload.IncastFanout > q.Topology.HostsPerLeaf {
		q.Workload.IncastFanout = q.Topology.HostsPerLeaf
	}
	if q.Topology.Leaves > 2 && (q.Workload.ServersPerClient == 0 || q.Workload.ServersPerClient > 4) {
		q.Workload.ServersPerClient = 4
	}
	return q
}

// dropMissingLeafEvents removes link events (and storm links) whose leaf
// endpoint no longer exists after a Quick shrink to `leaves` leaves; storms
// left with no links, and the emptied events, are dropped entirely.
func dropMissingLeafEvents(events []EventSpec, leaves int) []EventSpec {
	present := func(l *LinkRef) bool {
		for i := 1; i <= leaves; i++ {
			name := fmt.Sprintf("L%d", i)
			if l.A == name || l.B == name {
				return true
			}
		}
		return false
	}
	var out []EventSpec
	for _, e := range events {
		if e.Link != nil && !present(e.Link) {
			continue
		}
		if e.Storm != nil {
			var keep []LinkRef
			for _, l := range e.Storm.Links {
				if present(&l) {
					keep = append(keep, l)
				}
			}
			if len(keep) == 0 {
				continue
			}
			e.Storm.Links = keep
		}
		out = append(out, e)
	}
	return out
}

func usToSim(us float64) sim.Time { return sim.Time(us * float64(sim.Microsecond)) }
func msToSim(ms float64) sim.Time { return sim.Time(ms * float64(sim.Millisecond)) }
