// Package scenario is the declarative experiment layer: a Spec describes a
// fat-tree slice (k, oversubscription, per-tier speeds and latencies), a
// workload blend (web-search, RPC, ML all-to-all, incast), the schemes to
// compare, and a timestamped event script — link flaps, switch failures,
// speed downgrades, load ramps, and composed failure storms. Specs are JSON
// (stdlib only); compile.go lowers a validated Spec onto the existing
// cluster/netem machinery, where every scripted event becomes an ordinary
// deterministic simulator event, so the correctness oracle, telemetry, and
// parallel-run byte identity hold unchanged.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"clove/internal/cluster"
)

// Spec is one complete scenario. The zero value is invalid: use Parse (or
// fill every section and call ApplyDefaults + Validate).
type Spec struct {
	Name        string       `json:"name"`
	Description string       `json:"description,omitempty"`
	Topology    TopologySpec `json:"topology"`
	Workload    WorkloadSpec `json:"workload"`
	// Schemes are the load-balancing schemes to compare (cluster.Scheme
	// names, e.g. "ecmp", "clove-ecn").
	Schemes []string `json:"schemes"`
	// Seeds are the replicate RNG seeds (default: [1]).
	Seeds []int64 `json:"seeds,omitempty"`
	// Events is the scripted timeline, applied identically to every
	// (scheme, seed) run.
	Events []EventSpec `json:"events,omitempty"`
}

// TopologySpec describes the fabric as a fat-tree slice: the K/2 spines of
// one pod pair mapped onto the simulator's two-leaf Clos (clients on leaf 1,
// servers on leaf 2), with the trunk tier thinned by the oversubscription
// ratio. Rates are nominal hardware speeds; RateScale shrinks them uniformly
// to keep packet-level simulation cheap (timestamps in the event script are
// authored against the scaled regime).
type TopologySpec struct {
	// K is the fat-tree arity: K/2 spine switches (even, >= 2).
	K int `json:"k"`
	// Leaves is the number of leaf switches (default 2, the paper's pod
	// pair). More than 2 leaves compiles to the sharded (event-domain)
	// cluster: one domain per switch, run in conservative parallel windows.
	Leaves int `json:"leaves,omitempty"`
	// HostsPerLeaf defaults to K/2.
	HostsPerLeaf int `json:"hosts_per_leaf,omitempty"`
	// TrunksPerPair is the number of parallel leaf-spine links (default 1).
	TrunksPerPair int `json:"trunks_per_pair,omitempty"`
	// Oversubscription is hosts' access bandwidth over trunk bandwidth
	// (default 1 = non-blocking; 4 = a 4:1 oversubscribed fabric).
	Oversubscription float64 `json:"oversubscription,omitempty"`
	// HostGbps is the nominal access-link speed (default 10).
	HostGbps float64 `json:"host_gbps,omitempty"`
	// RateScale multiplies every link rate (default 0.01: 10G hosts run as
	// 100M, preserving all ratios).
	RateScale float64 `json:"rate_scale,omitempty"`
	// EdgeDelayUs is the host<->leaf propagation delay in µs (default 5).
	EdgeDelayUs float64 `json:"edge_delay_us,omitempty"`
	// FabricDelayUs is the leaf<->spine propagation delay in µs
	// (default: EdgeDelayUs).
	FabricDelayUs float64 `json:"fabric_delay_us,omitempty"`
}

// WorkloadSpec describes the blended workload one run offers.
type WorkloadSpec struct {
	// Load is the offered load as a fraction of the bisection bandwidth.
	Load float64 `json:"load"`
	// TotalJobs across all clients (composite ML/incast jobs count as one).
	TotalJobs int `json:"total_jobs"`
	// SizeScale multiplies all component sizes (default 1).
	SizeScale float64 `json:"size_scale,omitempty"`
	// Mix gives each component's share of arrivals; must sum to 1.
	Mix MixFractions `json:"mix"`
	// IncastFanout servers answer each incast request (default: all).
	IncastFanout int `json:"incast_fanout,omitempty"`
	// IncastBytes is the total response per incast request (default 1e6).
	IncastBytes int64 `json:"incast_bytes,omitempty"`
	// MLBytes is the total push per all-to-all job (default 1e6).
	MLBytes int64 `json:"ml_bytes,omitempty"`
	// MaxTimeMs bounds the run in sim milliseconds (default 60000); the
	// event window: every event timestamp must fall inside [0, MaxTimeMs].
	MaxTimeMs float64 `json:"max_time_ms,omitempty"`
	// WarmupMs delays the first arrivals.
	WarmupMs float64 `json:"warmup_ms,omitempty"`
	// ServersPerClient caps each client's server set on topologies with
	// more than 2 leaves (0 = the cluster default, min(32, other-leaf
	// hosts)); ignored on the two-leaf full mesh.
	ServersPerClient int `json:"servers_per_client,omitempty"`
}

// MixFractions is the workload blend; fractions must sum to 1.
type MixFractions struct {
	WebSearch float64 `json:"web_search,omitempty"`
	RPC       float64 `json:"rpc,omitempty"`
	ML        float64 `json:"ml,omitempty"`
	Incast    float64 `json:"incast,omitempty"`
}

// EventSpec is one timestamped entry of the scenario script.
type EventSpec struct {
	// AtMs is the event time in sim milliseconds from run start.
	AtMs float64 `json:"at_ms"`
	// Type is one of: link-down, link-up, link-rate, switch-down,
	// switch-up, load-scale, storm.
	Type string `json:"type"`
	// Link names the leaf-spine link pair (link-down/link-up/link-rate).
	Link *LinkRef `json:"link,omitempty"`
	// Switch names the spine to fail or recover (switch-down/switch-up).
	Switch string `json:"switch,omitempty"`
	// RateGbps is the new nominal speed (link-rate); scaled by RateScale.
	RateGbps float64 `json:"rate_gbps,omitempty"`
	// Scale multiplies the offered load from this point on (load-scale);
	// 1 restores the configured load.
	Scale float64 `json:"scale,omitempty"`
	// Storm expands into a rolling sequence of link flaps (storm).
	Storm *StormSpec `json:"storm,omitempty"`
}

// LinkRef names one leaf-spine trunk pair: endpoints are a leaf ("L1"/"L2")
// and a spine ("S1".."Sn"), in either order.
type LinkRef struct {
	A     string `json:"a"`
	B     string `json:"b"`
	Trunk int    `json:"trunk,omitempty"`
}

// StormSpec is a composed failure storm: each listed link flaps with the
// given period (down for half a period, up for the other half), starts
// staggered across the link list, and the whole storm ends — every link
// restored — after DurationMs.
type StormSpec struct {
	Links      []LinkRef `json:"links"`
	PeriodMs   float64   `json:"period_ms"`
	DurationMs float64   `json:"duration_ms"`
}

// Event type names.
const (
	EventLinkDown   = "link-down"
	EventLinkUp     = "link-up"
	EventLinkRate   = "link-rate"
	EventSwitchDown = "switch-down"
	EventSwitchUp   = "switch-up"
	EventLoadScale  = "load-scale"
	EventStorm      = "storm"
)

// minScaledRateBps is the floor on any scaled link rate: below this the
// simulated serialization times collapse into the integer-time resolution.
const minScaledRateBps = 1e6

// Parse decodes, defaults, and validates one scenario spec. Unknown fields
// and trailing data are errors, so a spec that parses round-trips through
// Marshal byte-stably.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("scenario: trailing data after spec")
	}
	s.ApplyDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Marshal renders the spec as indented JSON (the on-disk scenario format).
func (s *Spec) Marshal() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Clone deep-copies the spec via its JSON form.
func (s *Spec) Clone() *Spec {
	data, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("scenario: clone marshal: %v", err))
	}
	var out Spec
	if err := json.Unmarshal(data, &out); err != nil {
		panic(fmt.Sprintf("scenario: clone unmarshal: %v", err))
	}
	return &out
}

// ApplyDefaults fills every omitted field with its documented default. It is
// idempotent, and normalizes empty containers to nil, so default-filled
// specs survive a Marshal/Parse round trip unchanged.
func (s *Spec) ApplyDefaults() {
	t := &s.Topology
	if t.Leaves == 0 {
		t.Leaves = 2
	}
	if t.HostsPerLeaf == 0 {
		t.HostsPerLeaf = t.K / 2
	}
	if t.TrunksPerPair == 0 {
		t.TrunksPerPair = 1
	}
	if t.Oversubscription == 0 {
		t.Oversubscription = 1
	}
	if t.HostGbps == 0 {
		t.HostGbps = 10
	}
	if t.RateScale == 0 {
		t.RateScale = 0.01
	}
	if t.EdgeDelayUs == 0 {
		t.EdgeDelayUs = 5
	}
	if t.FabricDelayUs == 0 {
		t.FabricDelayUs = t.EdgeDelayUs
	}
	w := &s.Workload
	if w.SizeScale == 0 {
		w.SizeScale = 1
	}
	if w.MaxTimeMs == 0 {
		w.MaxTimeMs = 60000
	}
	if w.IncastBytes == 0 {
		w.IncastBytes = 1_000_000
	}
	if w.MLBytes == 0 {
		w.MLBytes = 1_000_000
	}
	if w.IncastFanout == 0 && w.Mix.Incast > 0 {
		w.IncastFanout = t.HostsPerLeaf
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []int64{1}
	}
	if len(s.Schemes) == 0 {
		s.Schemes = nil
	}
	if len(s.Events) == 0 {
		s.Events = nil
	}
	for i := range s.Events {
		e := &s.Events[i]
		if e.Storm != nil && len(e.Storm.Links) == 0 {
			e.Storm.Links = nil
		}
	}
}

// errf prefixes a validation error with the scenario name.
func (s *Spec) errf(format string, a ...any) error {
	return fmt.Errorf("scenario %q: %s", s.Name, fmt.Sprintf(format, a...))
}

// validSchemes is every scheme a spec may name: the paper's evaluated set
// plus the hidden differential references (clove-uniform, concury-ref,
// charon-ref), so a scenario can pit a production scheme against its
// replay twin.
func validSchemes() map[string]bool {
	m := map[string]bool{
		string(cluster.SchemeCloveUniform): true,
		string(cluster.SchemeConcuryRef):   true,
		string(cluster.SchemeCharonRef):    true,
	}
	for _, sch := range cluster.AllSchemes() {
		m[string(sch)] = true
	}
	return m
}

// validName reports whether name is 1-64 chars of [a-z0-9-].
func validName(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for _, r := range name {
		if !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-') {
			return false
		}
	}
	return true
}

// Validate checks a default-filled spec; the error messages are part of the
// package's contract (asserted exactly by the validation test battery).
func (s *Spec) Validate() error {
	if !validName(s.Name) {
		return fmt.Errorf("scenario: name must be 1-64 chars of [a-z0-9-], got %q", s.Name)
	}
	if err := s.validateTopology(); err != nil {
		return err
	}
	if err := s.validateWorkload(); err != nil {
		return err
	}
	if len(s.Schemes) == 0 {
		return s.errf("at least one scheme required")
	}
	seen := map[string]bool{}
	valid := validSchemes()
	for _, sch := range s.Schemes {
		if !valid[sch] {
			return s.errf("unknown scheme %q", sch)
		}
		if seen[sch] {
			return s.errf("duplicate scheme %q", sch)
		}
		seen[sch] = true
	}
	if len(s.Seeds) > 16 {
		return s.errf("at most 16 seeds, got %d", len(s.Seeds))
	}
	for i := range s.Events {
		if err := s.validateEvent(i, &s.Events[i]); err != nil {
			return err
		}
	}
	return nil
}

func (s *Spec) validateTopology() error {
	t := s.Topology
	if t.K < 2 || t.K > 64 || t.K%2 != 0 {
		return s.errf("topology.k must be a positive even number <= 64, got %d", t.K)
	}
	if t.Leaves < 2 || t.Leaves > 64 {
		return s.errf("topology.leaves must be in [2, 64], got %d", t.Leaves)
	}
	if t.HostsPerLeaf < 1 || t.HostsPerLeaf > 64 {
		return s.errf("topology.hosts_per_leaf must be in [1, 64], got %d", t.HostsPerLeaf)
	}
	if t.TrunksPerPair < 1 || t.TrunksPerPair > 8 {
		return s.errf("topology.trunks_per_pair must be in [1, 8], got %d", t.TrunksPerPair)
	}
	if !(t.Oversubscription > 0) || t.Oversubscription > 64 {
		return s.errf("topology.oversubscription must be in (0, 64], got %v", t.Oversubscription)
	}
	if !(t.HostGbps > 0) || t.HostGbps > 1000 {
		return s.errf("topology.host_gbps must be in (0, 1000], got %v", t.HostGbps)
	}
	if !(t.RateScale > 0) || t.RateScale > 1 {
		return s.errf("topology.rate_scale must be in (0, 1], got %v", t.RateScale)
	}
	if !(t.EdgeDelayUs > 0) || t.EdgeDelayUs > 10000 {
		return s.errf("topology.edge_delay_us must be in (0, 10000], got %v", t.EdgeDelayUs)
	}
	if !(t.FabricDelayUs > 0) || t.FabricDelayUs > 10000 {
		return s.errf("topology.fabric_delay_us must be in (0, 10000], got %v", t.FabricDelayUs)
	}
	if rate := t.HostGbps * 1e9 * t.RateScale; rate < minScaledRateBps {
		return s.errf("topology: scaled host rate %.0f bps below %.0f (raise host_gbps or rate_scale)", rate, float64(minScaledRateBps))
	}
	if rate := s.scaledTrunkBps(); rate < minScaledRateBps {
		return s.errf("topology: scaled trunk rate %.0f bps below %.0f (check oversubscription)", rate, float64(minScaledRateBps))
	}
	return nil
}

// scaledTrunkBps is the per-trunk rate after oversubscription and scaling:
// the leaf's host bandwidth spread over its uplinks, thinned by the ratio.
func (s *Spec) scaledTrunkBps() float64 {
	t := s.Topology
	hostBps := t.HostGbps * 1e9 * t.RateScale
	return float64(t.HostsPerLeaf) * hostBps /
		(float64(t.K/2*t.TrunksPerPair) * t.Oversubscription)
}

func (s *Spec) validateWorkload() error {
	w := s.Workload
	if !(w.Load > 0) || w.Load > 1 {
		return s.errf("workload.load must be in (0, 1], got %v", w.Load)
	}
	if w.TotalJobs < 1 || w.TotalJobs > 1_000_000 {
		return s.errf("workload.total_jobs must be in [1, 1000000], got %d", w.TotalJobs)
	}
	if !(w.SizeScale > 0) || w.SizeScale > 10 {
		return s.errf("workload.size_scale must be in (0, 10], got %v", w.SizeScale)
	}
	fr := []struct {
		name string
		v    float64
	}{
		{"web_search", w.Mix.WebSearch}, {"rpc", w.Mix.RPC},
		{"ml", w.Mix.ML}, {"incast", w.Mix.Incast},
	}
	sum := 0.0
	for _, f := range fr {
		if !(f.v >= 0) || f.v > 1 {
			return s.errf("workload.mix.%s must be in [0, 1], got %v", f.name, f.v)
		}
		sum += f.v
	}
	if math.Abs(sum-1) > 1e-9 {
		return s.errf("workload.mix fractions must sum to 1, got %v", sum)
	}
	if w.IncastFanout < 0 || w.IncastFanout > s.Topology.HostsPerLeaf {
		return s.errf("workload.incast_fanout must be in [0, hosts_per_leaf=%d], got %d", s.Topology.HostsPerLeaf, w.IncastFanout)
	}
	if w.IncastBytes < 1 || w.IncastBytes > 1e12 {
		return s.errf("workload.incast_bytes must be in [1, 1e12], got %d", w.IncastBytes)
	}
	if w.MLBytes < 1 || w.MLBytes > 1e12 {
		return s.errf("workload.ml_bytes must be in [1, 1e12], got %d", w.MLBytes)
	}
	if !(w.MaxTimeMs > 0) || w.MaxTimeMs > 3_600_000 {
		return s.errf("workload.max_time_ms must be in (0, 3600000], got %v", w.MaxTimeMs)
	}
	if !(w.WarmupMs >= 0) || w.WarmupMs > w.MaxTimeMs {
		return s.errf("workload.warmup_ms must be in [0, max_time_ms], got %v", w.WarmupMs)
	}
	if w.ServersPerClient < 0 || w.ServersPerClient > 64 {
		return s.errf("workload.servers_per_client must be in [0, 64], got %d", w.ServersPerClient)
	}
	return nil
}

// checkLink validates a link reference against the spec's topology: one
// endpoint a leaf, the other an existing spine, trunk index in range.
func (s *Spec) checkLink(idx int, l *LinkRef) error {
	leaf := func(n string) bool {
		for i := 1; i <= s.Topology.Leaves; i++ {
			if n == fmt.Sprintf("L%d", i) {
				return true
			}
		}
		return false
	}
	spine := func(n string) bool {
		for i := 1; i <= s.Topology.K/2; i++ {
			if n == fmt.Sprintf("S%d", i) {
				return true
			}
		}
		return false
	}
	ok := (leaf(l.A) && spine(l.B)) || (spine(l.A) && leaf(l.B))
	if !ok || l.Trunk < 0 || l.Trunk >= s.Topology.TrunksPerPair {
		return s.errf("events[%d]: no link %s-%s#%d in this topology", idx, l.A, l.B, l.Trunk)
	}
	return nil
}

func (s *Spec) validateEvent(idx int, e *EventSpec) error {
	maxMs := s.Workload.MaxTimeMs
	if !(e.AtMs >= 0) || e.AtMs > maxMs {
		return s.errf("events[%d]: at_ms %v outside [0, %v]", idx, e.AtMs, maxMs)
	}
	switch e.Type {
	case EventLinkDown, EventLinkUp:
		if e.Link == nil {
			return s.errf("events[%d]: %s requires a link", idx, e.Type)
		}
		return s.checkLink(idx, e.Link)
	case EventLinkRate:
		if e.Link == nil {
			return s.errf("events[%d]: %s requires a link", idx, e.Type)
		}
		if err := s.checkLink(idx, e.Link); err != nil {
			return err
		}
		if !(e.RateGbps > 0) || e.RateGbps > 1000 {
			return s.errf("events[%d]: rate_gbps must be in (0, 1000], got %v", idx, e.RateGbps)
		}
		if rate := e.RateGbps * 1e9 * s.Topology.RateScale; rate < minScaledRateBps {
			return s.errf("events[%d]: scaled link rate %.0f bps below %.0f", idx, rate, float64(minScaledRateBps))
		}
		return nil
	case EventSwitchDown, EventSwitchUp:
		if !s.isSpine(e.Switch) {
			return s.errf("events[%d]: switch %q is not a spine of this topology", idx, e.Switch)
		}
		return nil
	case EventLoadScale:
		if !(e.Scale > 0) || e.Scale > 100 {
			return s.errf("events[%d]: scale must be in (0, 100], got %v", idx, e.Scale)
		}
		return nil
	case EventStorm:
		st := e.Storm
		if st == nil {
			return s.errf("events[%d]: storm requires a storm block", idx)
		}
		if len(st.Links) == 0 {
			return s.errf("events[%d]: storm needs at least one link", idx)
		}
		for li := range st.Links {
			if err := s.checkLink(idx, &st.Links[li]); err != nil {
				return err
			}
		}
		if !(st.DurationMs > 0) {
			return s.errf("events[%d]: storm duration_ms must be positive, got %v", idx, st.DurationMs)
		}
		if !(st.PeriodMs > 0) || st.PeriodMs > st.DurationMs {
			return s.errf("events[%d]: storm period_ms must be in (0, duration_ms], got %v", idx, st.PeriodMs)
		}
		if e.AtMs+st.DurationMs > maxMs {
			return s.errf("events[%d]: storm extends past workload window: %v + %v > %v", idx, e.AtMs, st.DurationMs, maxMs)
		}
		return nil
	default:
		return s.errf("events[%d]: unknown event type %q", idx, e.Type)
	}
}

func (s *Spec) isSpine(name string) bool {
	for i := 1; i <= s.Topology.K/2; i++ {
		if name == fmt.Sprintf("S%d", i) {
			return true
		}
	}
	return false
}
