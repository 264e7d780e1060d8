package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clove/internal/packet"
	"clove/internal/sim"
)

// streamNames are the exported stream basenames (metrics included).
var streamNames = []string{"queue", "weights", "cwnd", "retx", "flowlet", "fct", "sim", "metrics"}

func TestExportWritesEveryStreamInBothFormats(t *testing.T) {
	s := sim.New(1)
	tr := NewTracer(s, Config{})
	flow := packet.FiveTuple{Src: 1, Dst: 2, SrcPort: 100, DstPort: 80, Proto: packet.ProtoTCP}
	tr.QueueSample(10, 3, "L1->S1", 7, 2, 1)
	tr.WeightSample(10, 0, 4, 7000, 0.25, 0.5, -1)
	tr.CwndSample(10, flow, 10, 32.5, 200_000, 14600)
	tr.Retransmit(11, flow, 1460, RetxFast)
	tr.Retransmit(12, flow, 2920, RetxTimeout)
	tr.Flowlet(13, flow, 2, 7001, 12, 17520, 150_000)
	tr.FCT(14, 1, 2, 100_000, 1_000_000)
	tr.AddMetric("netem.ecn_marks", func() int64 { return 2 })

	dir := t.TempDir()
	if err := tr.Export(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range streamNames {
		for _, ext := range []string{".jsonl", ".csv"} {
			b, err := os.ReadFile(filepath.Join(dir, name+ext))
			if err != nil {
				t.Fatalf("stream %s%s missing: %v", name, ext, err)
			}
			if ext == ".csv" && len(b) == 0 {
				t.Errorf("%s.csv has no header", name)
			}
		}
	}

	// Every JSONL line must parse, with keys matching the CSV header.
	for _, name := range streamNames {
		csv, _ := os.ReadFile(filepath.Join(dir, name+".csv"))
		lines := strings.Split(strings.TrimRight(string(csv), "\n"), "\n")
		cols := strings.Split(lines[0], ",")
		jb, _ := os.ReadFile(filepath.Join(dir, name+".jsonl"))
		jlines := strings.Split(strings.TrimRight(string(jb), "\n"), "\n")
		if jb == nil || jlines[0] == "" {
			jlines = nil
		}
		if got, want := len(jlines), len(lines)-1; got != want {
			t.Errorf("%s: %d JSONL records vs %d CSV rows", name, got, want)
		}
		for i, l := range jlines {
			var m map[string]any
			if err := json.Unmarshal([]byte(l), &m); err != nil {
				t.Fatalf("%s.jsonl line %d: %v", name, i+1, err)
			}
			if len(m) != len(cols) {
				t.Errorf("%s.jsonl line %d has %d keys, header has %d columns", name, i+1, len(m), len(cols))
			}
		}
	}

	// Spot-check values survive the round trip.
	fct, _ := os.ReadFile(filepath.Join(dir, "fct.csv"))
	if want := "14,1,2,100000,1000000"; !strings.Contains(string(fct), want) {
		t.Errorf("fct.csv missing row %q:\n%s", want, fct)
	}
	retx, _ := os.ReadFile(filepath.Join(dir, "retx.jsonl"))
	if !strings.Contains(string(retx), `"kind":"timeout"`) || !strings.Contains(string(retx), `"kind":"fast"`) {
		t.Errorf("retx.jsonl missing kinds:\n%s", retx)
	}
	metrics, _ := os.ReadFile(filepath.Join(dir, "metrics.csv"))
	for _, want := range []string{"netem.ecn_marks,2", "telemetry.dropped.fct,0"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics.csv missing %q:\n%s", want, metrics)
		}
	}
}

func TestExportIsByteStableAcrossCalls(t *testing.T) {
	build := func() *Tracer {
		s := sim.New(1)
		tr := NewTracer(s, Config{})
		flow := packet.FiveTuple{Src: 3, Dst: 4, SrcPort: 9, DstPort: 80, Proto: packet.ProtoTCP}
		for i := 0; i < 50; i++ {
			tr.QueueSample(sim.Time(i), packet.LinkID(i%5), "lk", i%17, int64(i), 0)
			tr.WeightSample(sim.Time(i), 3, 4, uint16(7000+i%4), 1.0/3.0, 0.1*float64(i%10), sim.Time(i%3)-1)
			tr.Retransmit(sim.Time(i), flow, int64(i)*1460, RetxKind(i%2))
		}
		tr.AddMetric("a", func() int64 { return 5 })
		return tr
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	if err := build().Export(dirA); err != nil {
		t.Fatal(err)
	}
	if err := build().Export(dirB); err != nil {
		t.Fatal(err)
	}
	for _, name := range streamNames {
		for _, ext := range []string{".jsonl", ".csv"} {
			a, _ := os.ReadFile(filepath.Join(dirA, name+ext))
			b, _ := os.ReadFile(filepath.Join(dirB, name+ext))
			if string(a) != string(b) {
				t.Errorf("%s%s differs between identical tracers", name, ext)
			}
		}
	}
}

// TestExportMetricsReadAtExport pins the metrics file: AddMetric readers are
// evaluated when Export runs (not when registered), listed in name order
// whatever the registration order, and followed by the seven
// telemetry.dropped.* rows in stream order.
func TestExportMetricsReadAtExport(t *testing.T) {
	s := sim.New(1)
	tr := NewTracer(s, Config{MaxSamples: 2})
	var retx, marks int64
	tr.AddMetric("tcp.retransmits", func() int64 { return retx })
	tr.AddMetric("netem.ecn_marks", func() int64 { return marks })
	tr.AddMetric("netem.drops", func() int64 { return -1 })
	tr.AddMetric("netem.drops", func() int64 { return 0 }) // re-registering replaces
	retx, marks = 3, 155
	for i := 0; i < 5; i++ {
		tr.FCT(sim.Time(i), 1, 2, 100, 50) // overflows the 2-record ring by 3
	}

	dir := t.TempDir()
	if err := tr.Export(dir); err != nil {
		t.Fatal(err)
	}
	wantCSV := `name,value
netem.drops,0
netem.ecn_marks,155
tcp.retransmits,3
telemetry.dropped.queue,0
telemetry.dropped.weights,0
telemetry.dropped.cwnd,0
telemetry.dropped.retx,0
telemetry.dropped.flowlet,0
telemetry.dropped.fct,3
telemetry.dropped.sim,0
`
	wantJSONL := `{"name":"netem.drops","value":0}
{"name":"netem.ecn_marks","value":155}
{"name":"tcp.retransmits","value":3}
{"name":"telemetry.dropped.queue","value":0}
{"name":"telemetry.dropped.weights","value":0}
{"name":"telemetry.dropped.cwnd","value":0}
{"name":"telemetry.dropped.retx","value":0}
{"name":"telemetry.dropped.flowlet","value":0}
{"name":"telemetry.dropped.fct","value":3}
{"name":"telemetry.dropped.sim","value":0}
`
	for name, want := range map[string]string{"metrics.csv": wantCSV, "metrics.jsonl": wantJSONL} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("%s =\n%s\nwant\n%s", name, got, want)
		}
	}
}
