package scenario

import (
	"reflect"
	"strings"
	"testing"
)

// baseSpec is a minimal valid spec with defaults applied; each validation
// case mutates one field and asserts the exact error message.
func baseSpec() *Spec {
	sp := &Spec{
		Name:     "test-scn",
		Topology: TopologySpec{K: 4},
		Workload: WorkloadSpec{Load: 0.5, TotalJobs: 100, Mix: MixFractions{WebSearch: 1}},
		Schemes:  []string{"ecmp"},
	}
	sp.ApplyDefaults()
	return sp
}

func link(a, b string, trunk int) *LinkRef { return &LinkRef{A: a, B: b, Trunk: trunk} }

// TestValidateErrorMessages pins every validation error path with its exact
// message: the messages are API (scenario authors debug against them).
func TestValidateErrorMessages(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"bad name", func(s *Spec) { s.Name = "Bad Name" },
			`scenario: name must be 1-64 chars of [a-z0-9-], got "Bad Name"`},
		{"empty name", func(s *Spec) { s.Name = "" },
			`scenario: name must be 1-64 chars of [a-z0-9-], got ""`},
		{"k odd", func(s *Spec) { s.Topology.K = 3 },
			`scenario "test-scn": topology.k must be a positive even number <= 64, got 3`},
		{"k zero", func(s *Spec) { s.Topology.K = 0 },
			`scenario "test-scn": topology.k must be a positive even number <= 64, got 0`},
		{"k huge", func(s *Spec) { s.Topology.K = 66 },
			`scenario "test-scn": topology.k must be a positive even number <= 64, got 66`},
		{"hosts out of range", func(s *Spec) { s.Topology.HostsPerLeaf = 65 },
			`scenario "test-scn": topology.hosts_per_leaf must be in [1, 64], got 65`},
		{"trunks out of range", func(s *Spec) { s.Topology.TrunksPerPair = 9 },
			`scenario "test-scn": topology.trunks_per_pair must be in [1, 8], got 9`},
		{"oversubscription negative", func(s *Spec) { s.Topology.Oversubscription = -1 },
			`scenario "test-scn": topology.oversubscription must be in (0, 64], got -1`},
		{"host_gbps out of range", func(s *Spec) { s.Topology.HostGbps = 1001 },
			`scenario "test-scn": topology.host_gbps must be in (0, 1000], got 1001`},
		{"rate_scale out of range", func(s *Spec) { s.Topology.RateScale = 2 },
			`scenario "test-scn": topology.rate_scale must be in (0, 1], got 2`},
		{"edge delay out of range", func(s *Spec) { s.Topology.EdgeDelayUs = -5 },
			`scenario "test-scn": topology.edge_delay_us must be in (0, 10000], got -5`},
		{"fabric delay out of range", func(s *Spec) { s.Topology.FabricDelayUs = 20000 },
			`scenario "test-scn": topology.fabric_delay_us must be in (0, 10000], got 20000`},
		{"scaled host rate too low", func(s *Spec) { s.Topology.HostGbps = 0.05 },
			`scenario "test-scn": topology: scaled host rate 500000 bps below 1000000 (raise host_gbps or rate_scale)`},
		{"scaled trunk rate too low", func(s *Spec) {
			s.Topology.HostsPerLeaf = 1
			s.Topology.Oversubscription = 64
		}, `scenario "test-scn": topology: scaled trunk rate 781250 bps below 1000000 (check oversubscription)`},
		{"load out of range", func(s *Spec) { s.Workload.Load = 1.5 },
			`scenario "test-scn": workload.load must be in (0, 1], got 1.5`},
		{"load zero", func(s *Spec) { s.Workload.Load = 0 },
			`scenario "test-scn": workload.load must be in (0, 1], got 0`},
		{"jobs out of range", func(s *Spec) { s.Workload.TotalJobs = 0 },
			`scenario "test-scn": workload.total_jobs must be in [1, 1000000], got 0`},
		{"size_scale out of range", func(s *Spec) { s.Workload.SizeScale = 11 },
			`scenario "test-scn": workload.size_scale must be in (0, 10], got 11`},
		{"mix fraction negative", func(s *Spec) { s.Workload.Mix.RPC = -0.5 },
			`scenario "test-scn": workload.mix.rpc must be in [0, 1], got -0.5`},
		{"mix fractions not summing", func(s *Spec) { s.Workload.Mix = MixFractions{WebSearch: 0.5} },
			`scenario "test-scn": workload.mix fractions must sum to 1, got 0.5`},
		{"mix fractions over 1", func(s *Spec) { s.Workload.Mix = MixFractions{WebSearch: 0.8, Incast: 0.4} },
			`scenario "test-scn": workload.mix fractions must sum to 1, got 1.2000000000000002`},
		{"incast fanout too large", func(s *Spec) { s.Workload.IncastFanout = 3 },
			`scenario "test-scn": workload.incast_fanout must be in [0, hosts_per_leaf=2], got 3`},
		{"incast bytes out of range", func(s *Spec) { s.Workload.IncastBytes = 0 },
			`scenario "test-scn": workload.incast_bytes must be in [1, 1e12], got 0`},
		{"ml bytes out of range", func(s *Spec) { s.Workload.MLBytes = -1 },
			`scenario "test-scn": workload.ml_bytes must be in [1, 1e12], got -1`},
		{"max time out of range", func(s *Spec) { s.Workload.MaxTimeMs = 4_000_000 },
			`scenario "test-scn": workload.max_time_ms must be in (0, 3600000], got 4e+06`},
		{"warmup out of range", func(s *Spec) { s.Workload.WarmupMs = 70000 },
			`scenario "test-scn": workload.warmup_ms must be in [0, max_time_ms], got 70000`},
		{"no schemes", func(s *Spec) { s.Schemes = nil },
			`scenario "test-scn": at least one scheme required`},
		{"unknown scheme", func(s *Spec) { s.Schemes = []string{"wrr"} },
			`scenario "test-scn": unknown scheme "wrr"`},
		{"duplicate scheme", func(s *Spec) { s.Schemes = []string{"ecmp", "ecmp"} },
			`scenario "test-scn": duplicate scheme "ecmp"`},
		{"too many seeds", func(s *Spec) { s.Seeds = make([]int64, 17) },
			`scenario "test-scn": at most 16 seeds, got 17`},
		{"timestamp negative", func(s *Spec) {
			s.Events = []EventSpec{{AtMs: -1, Type: EventLinkDown, Link: link("L1", "S1", 0)}}
		}, `scenario "test-scn": events[0]: at_ms -1 outside [0, 60000]`},
		{"timestamp past window", func(s *Spec) {
			s.Events = []EventSpec{{AtMs: 99999, Type: EventLinkDown, Link: link("L1", "S1", 0)}}
		}, `scenario "test-scn": events[0]: at_ms 99999 outside [0, 60000]`},
		{"unknown event type", func(s *Spec) {
			s.Events = []EventSpec{{AtMs: 1, Type: "reboot"}}
		}, `scenario "test-scn": events[0]: unknown event type "reboot"`},
		{"link event without link", func(s *Spec) {
			s.Events = []EventSpec{{AtMs: 1, Type: EventLinkDown}}
		}, `scenario "test-scn": events[0]: link-down requires a link`},
		{"link not in topology", func(s *Spec) {
			s.Events = []EventSpec{{AtMs: 1, Type: EventLinkUp, Link: link("L1", "S9", 0)}}
		}, `scenario "test-scn": events[0]: no link L1-S9#0 in this topology`},
		{"trunk index out of range", func(s *Spec) {
			s.Events = []EventSpec{{AtMs: 1, Type: EventLinkDown, Link: link("L2", "S1", 1)}}
		}, `scenario "test-scn": events[0]: no link L2-S1#1 in this topology`},
		{"link-rate bad rate", func(s *Spec) {
			s.Events = []EventSpec{{AtMs: 1, Type: EventLinkRate, Link: link("L1", "S1", 0)}}
		}, `scenario "test-scn": events[0]: rate_gbps must be in (0, 1000], got 0`},
		{"link-rate scaled too low", func(s *Spec) {
			s.Events = []EventSpec{{AtMs: 1, Type: EventLinkRate, Link: link("L1", "S1", 0), RateGbps: 0.01}}
		}, `scenario "test-scn": events[0]: scaled link rate 100000 bps below 1000000`},
		{"switch not a spine", func(s *Spec) {
			s.Events = []EventSpec{{AtMs: 1, Type: EventSwitchDown, Switch: "L1"}}
		}, `scenario "test-scn": events[0]: switch "L1" is not a spine of this topology`},
		{"load-scale bad scale", func(s *Spec) {
			s.Events = []EventSpec{{AtMs: 1, Type: EventLoadScale, Scale: -2}}
		}, `scenario "test-scn": events[0]: scale must be in (0, 100], got -2`},
		{"storm without block", func(s *Spec) {
			s.Events = []EventSpec{{AtMs: 1, Type: EventStorm}}
		}, `scenario "test-scn": events[0]: storm requires a storm block`},
		{"storm without links", func(s *Spec) {
			s.Events = []EventSpec{{AtMs: 1, Type: EventStorm, Storm: &StormSpec{PeriodMs: 10, DurationMs: 100}}}
		}, `scenario "test-scn": events[0]: storm needs at least one link`},
		{"storm zero duration", func(s *Spec) {
			s.Events = []EventSpec{{AtMs: 1, Type: EventStorm,
				Storm: &StormSpec{Links: []LinkRef{*link("L1", "S1", 0)}, PeriodMs: 10}}}
		}, `scenario "test-scn": events[0]: storm duration_ms must be positive, got 0`},
		{"storm period over duration", func(s *Spec) {
			s.Events = []EventSpec{{AtMs: 1, Type: EventStorm,
				Storm: &StormSpec{Links: []LinkRef{*link("L1", "S1", 0)}, PeriodMs: 200, DurationMs: 100}}}
		}, `scenario "test-scn": events[0]: storm period_ms must be in (0, duration_ms], got 200`},
		{"storm past window", func(s *Spec) {
			s.Events = []EventSpec{{AtMs: 59500, Type: EventStorm,
				Storm: &StormSpec{Links: []LinkRef{*link("L1", "S1", 0)}, PeriodMs: 100, DurationMs: 1000}}}
		}, `scenario "test-scn": events[0]: storm extends past workload window: 59500 + 1000 > 60000`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := baseSpec()
			tc.mutate(sp)
			err := sp.Validate()
			if err == nil {
				t.Fatalf("Validate accepted invalid spec, want %q", tc.want)
			}
			if err.Error() != tc.want {
				t.Errorf("error mismatch:\n got: %s\nwant: %s", err, tc.want)
			}
		})
	}
}

func TestValidateAcceptsBase(t *testing.T) {
	if err := baseSpec().Validate(); err != nil {
		t.Fatalf("base spec invalid: %v", err)
	}
	// CONGA runs on any fabric, sharded ones included.
	sp := baseSpec()
	sp.Topology.Leaves, sp.Schemes = 4, []string{"conga"}
	if err := sp.Validate(); err != nil {
		t.Fatalf("4-leaf conga spec invalid: %v", err)
	}
}

// TestParseRejections covers decode-level failures before validation.
func TestParseRejections(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string // substring
	}{
		{"not json", "nope", "scenario: parse:"},
		{"unknown field", `{"name":"x","bogus":1}`, `unknown field "bogus"`},
		{"trailing data", `{"name":"a-b","topology":{"k":4},"workload":{"load":0.5,"total_jobs":10,"mix":{"web_search":1}},"schemes":["ecmp"]} {}`,
			"trailing data after spec"},
		{"wrong type", `{"name":"x","topology":{"k":"four"}}`, "scenario: parse:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.data))
			if err == nil {
				t.Fatal("Parse accepted bad input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestDefaultsIdempotentAndRoundTrip: defaults applied twice equal once, and
// a parsed spec survives Marshal -> Parse unchanged (the fuzz invariant, on
// a handwritten representative).
func TestDefaultsIdempotentAndRoundTrip(t *testing.T) {
	src := `{
	  "name": "round-trip",
	  "topology": {"k": 8, "trunks_per_pair": 2, "oversubscription": 2},
	  "workload": {"load": 0.6, "total_jobs": 120, "mix": {"web_search": 0.5, "rpc": 0.25, "ml": 0.125, "incast": 0.125}},
	  "schemes": ["ecmp", "clove-ecn"],
	  "seeds": [],
	  "events": [
	    {"at_ms": 100, "type": "storm", "storm": {"links": [{"a": "L2", "b": "S1"}], "period_ms": 50, "duration_ms": 200}},
	    {"at_ms": 400, "type": "load-scale", "scale": 2}
	  ]
	}`
	sp, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	twice := sp.Clone()
	twice.ApplyDefaults()
	if !reflect.DeepEqual(sp, twice) {
		t.Errorf("ApplyDefaults not idempotent:\n once: %+v\ntwice: %+v", sp, twice)
	}
	out, err := sp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	sp2, err := Parse(out)
	if err != nil {
		t.Fatalf("reparse of marshaled spec failed: %v\n%s", err, out)
	}
	if !reflect.DeepEqual(sp, sp2) {
		t.Errorf("round trip changed the spec:\n before: %+v\n after: %+v", sp, sp2)
	}
	if sp.Seeds[0] != 1 || len(sp.Seeds) != 1 {
		t.Errorf("empty seeds should default to [1], got %v", sp.Seeds)
	}
	if sp.Topology.HostsPerLeaf != 4 {
		t.Errorf("hosts_per_leaf default = %d, want k/2 = 4", sp.Topology.HostsPerLeaf)
	}
	if sp.Workload.IncastFanout != 4 {
		t.Errorf("incast_fanout default = %d, want hosts_per_leaf", sp.Workload.IncastFanout)
	}
}
