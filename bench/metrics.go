package main

import (
	"math"
	"sort"

	"clove/internal/cluster"
)

// metricDef names one metric and its unit. BENCHMARK.json repeats these
// names with direction and bound; bench_test.go holds the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of either product sees. Every workload
// reports every one of them; README.md says what each means per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "ratio"},
}

// perLayer are the module-named metrics of the traced pass. A workload that
// does not exercise a layer reports 0 for it.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := []metricDef{
		{"sim.event_ns", "ns"},
		{"sim.engine.ns_per_event", "ns"},
		{"sim.engine.events", "count"},
		{"sim.engine.w1_wall_s", "s"},
		{"sim.engine.speedup", "ratio"},
		{"netem.hop_ns", "ns"},
		{"netem.pkts_tx", "count"},
		{"netem.drops", "count"},
		{"netem.ecn_marks", "count"},
		{"packet.pool_getput_ns", "ns"},
		{"packet.mallocs_per_event", "ratio"},
		{"tcp.segment_ns", "ns"},
		{"tcp.segments", "count"},
		{"tcp.retransmits", "count"},
		{"tcp.timeouts", "count"},
		{"vswitch.encaps", "count"},
		{"vswitch.flowlets", "count"},
		{"vswitch.feedback", "count"},
		{"clove.wrr_next_ns", "ns"},
		{"clove.on_congestion_ns", "ns"},
		{"clove.flowlet_touch_ns", "ns"},
		{"cluster.build_ms", "ms"},
		{"cluster.unit_wall_s", "s"},
		{"cluster.cpu_ns_per_event", "ns"},
		{"cluster.fct_gain", "ratio"},
		{"cluster.unattributed_ns_per_event", "ns"},
	}
	for _, s := range cluster.AllSchemes() {
		m = append(m, metricDef{"cluster.ns_per_event." + string(s), "ns"})
	}
	return append(m, []metricDef{
		{"scenario.load_compile_ms", "ms"},
		{"oracle.overhead_frac", "ratio"},
		{"telemetry.overhead_frac", "ratio"},
		{"wire.shim_put_ns", "ns"},
		{"wire.shim_unmarshal_ns", "ns"},
		{"datapath.enqueue_ns", "ns"},
		{"datapath.flush_ns", "ns"},
		{"datapath.send_ns", "ns"},
		{"datapath.cpu_user_ns_per_pkt", "ns"},
		{"datapath.cpu_sys_ns_per_pkt", "ns"},
		{"datapath.busy_cores", "ratio"},
		{"datapath.allocs_per_pkt", "ratio"},
		{"datapath.flowlets_per_kpkt", "ratio"},
		{"datapath.decode_errors", "count"},
		{"datapath.socket_errors", "count"},
		{"datapath.oneway_p50_us", "us"},
		{"datapath.oneway_p99_us", "us"},
		{"datapath.pps.fallback", "1/s"},
		{"datapath.pps.mmsg", "1/s"},
		{"datapath.pps.gso", "1/s"},
		{"datapath.pps.512B", "1/s"},
		{"datapath.pps.1400B", "1/s"},
		{"datapath.cpu_sys_ns_per_pkt.1400B", "ns"},
		{"datapath.echo_rtt_p90_us", "us"},
		{"datapath.echo_rtt_p99_us", "us"},
		{"datapath.echo_rtt_p999_us", "us"},
		{"datapath.echo_cpu_us_per_req", "us"},
		{"trace.overhead_frac", "ratio"},
	}...)
}

// exactRepeat are the counts that must not differ at all between two runs of
// the same tree with the same seed.
var exactRepeat = []string{"sim.engine.events", "packet.mallocs_per_event", "cluster.fct_gain"}

// median of xs; 0 for an empty slice. xs is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// quantile reads the q-quantile of sorted xs (nearest rank, midpoint for an
// even-length median).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q == 0.5 && n%2 == 0 {
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}
