package telemetry

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// Export writes every stream and the run-level metrics to dir (created if
// missing), as both JSONL (one object per record, fixed key order) and CSV
// (header + one row per record). Numbers are formatted with strconv, records
// appear in capture order, and no wall-clock state is written, so the
// directory's bytes are a pure function of the run — identical for the same
// seed at any -j.
//
// Files: queue, weights, cwnd, retx, flowlet, fct, sim (.jsonl and .csv
// each) and metrics.jsonl/metrics.csv. Streams that captured nothing still
// produce files (headers only), so a trace directory always has the same
// shape.
func (t *Tracer) Export(dir string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	if err := exportStream(dir, "queue",
		[]string{"t_ns", "link", "name", "qlen", "ecn_marks", "drops"},
		t.queues.snapshot(), func(f *fields, s QueueSample) {
			f.int(int64(s.T)).int(int64(s.Link)).str(s.Name).int(int64(s.QLen)).int(s.ECNMarks).int(s.Drops)
		}); err != nil {
		return err
	}
	if err := exportStream(dir, "weights",
		[]string{"t_ns", "src", "dst", "port", "weight", "util", "congested_age_ns"},
		t.weights.snapshot(), func(f *fields, s WeightSample) {
			f.int(int64(s.T)).int(int64(s.Src)).int(int64(s.Dst)).int(int64(s.Port)).
				float(s.Weight).float(s.Util).int(int64(s.CongestedAge))
		}); err != nil {
		return err
	}
	if err := exportStream(dir, "cwnd",
		[]string{"t_ns", "flow", "cwnd", "ssthresh", "rto_ns", "outstanding"},
		t.cwnds.snapshot(), func(f *fields, s CwndSample) {
			f.int(int64(s.T)).str(s.Flow.String()).float(s.Cwnd).float(s.Ssthresh).
				int(int64(s.RTO)).int(s.Outstanding)
		}); err != nil {
		return err
	}
	if err := exportStream(dir, "retx",
		[]string{"t_ns", "flow", "seq", "kind"},
		t.retx.snapshot(), func(f *fields, s RetxEvent) {
			f.int(int64(s.T)).str(s.Flow.String()).int(s.Seq).str(s.Kind.String())
		}); err != nil {
		return err
	}
	if err := exportStream(dir, "flowlet",
		[]string{"t_ns", "flow", "flowlet_id", "port", "packets", "bytes", "gap_ns"},
		t.flowlets.snapshot(), func(f *fields, s FlowletSample) {
			f.int(int64(s.T)).str(s.Flow.String()).int(int64(s.ID)).int(int64(s.Port)).
				int(s.Packets).int(s.Bytes).int(int64(s.Gap))
		}); err != nil {
		return err
	}
	if err := exportStream(dir, "fct",
		[]string{"t_ns", "src", "dst", "size", "fct_ns"},
		t.fcts.snapshot(), func(f *fields, s FCTSample) {
			f.int(int64(s.T)).int(int64(s.Src)).int(int64(s.Dst)).int(s.Size).int(int64(s.FCT))
		}); err != nil {
		return err
	}
	if err := exportStream(dir, "sim",
		[]string{"t_ns", "processed", "pending", "free_events"},
		t.sims.snapshot(), func(f *fields, s SimSample) {
			f.int(int64(s.T)).int(int64(s.Processed)).int(int64(s.Pending)).int(int64(s.FreeList))
		}); err != nil {
		return err
	}
	return t.exportMetrics(dir)
}

// exportMetrics writes the AddMetric totals in name order, then the
// per-stream overwrite counts.
func (t *Tracer) exportMetrics(dir string) error {
	type metric struct {
		name  string
		value int64
	}
	ms := make([]metric, 0, len(t.metrics)+7)
	for name, read := range t.metrics {
		ms = append(ms, metric{name, read()})
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	ms = append(ms,
		metric{"telemetry.dropped.queue", t.queues.dropped},
		metric{"telemetry.dropped.weights", t.weights.dropped},
		metric{"telemetry.dropped.cwnd", t.cwnds.dropped},
		metric{"telemetry.dropped.retx", t.retx.dropped},
		metric{"telemetry.dropped.flowlet", t.flowlets.dropped},
		metric{"telemetry.dropped.fct", t.fcts.dropped},
		metric{"telemetry.dropped.sim", t.sims.dropped},
	)
	return exportStream(dir, "metrics", []string{"name", "value"}, ms,
		func(f *fields, m metric) { f.str(m.name).int(m.value) })
}

// fields accumulates one record's values; the same sequence renders both the
// CSV row and the JSONL object so the two files can never disagree.
type fields struct {
	vals   []string
	quoted []bool // JSONL: quote this field as a string
}

func (f *fields) reset() { f.vals = f.vals[:0]; f.quoted = f.quoted[:0] }

func (f *fields) int(v int64) *fields {
	f.vals = append(f.vals, strconv.FormatInt(v, 10))
	f.quoted = append(f.quoted, false)
	return f
}

func (f *fields) float(v float64) *fields {
	f.vals = append(f.vals, formatFloat(v))
	f.quoted = append(f.quoted, false)
	return f
}

func (f *fields) str(v string) *fields {
	f.vals = append(f.vals, v)
	f.quoted = append(f.quoted, true)
	return f
}

// formatFloat renders a float deterministically; shortest round-trip form.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// exportStream writes name.jsonl and name.csv under dir from recs.
func exportStream[T any](dir, name string, cols []string, recs []T, emit func(*fields, T)) error {
	jf, err := os.Create(filepath.Join(dir, name+".jsonl"))
	if err != nil {
		return err
	}
	defer jf.Close()
	cf, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer cf.Close()
	jw := bufio.NewWriter(jf)
	cw := bufio.NewWriter(cf)

	for i, c := range cols {
		if i > 0 {
			cw.WriteByte(',')
		}
		cw.WriteString(c)
	}
	cw.WriteByte('\n')

	var f fields
	for _, rec := range recs {
		f.reset()
		emit(&f, rec)
		if len(f.vals) != len(cols) {
			return fmt.Errorf("telemetry: stream %s emitted %d fields, schema has %d", name, len(f.vals), len(cols))
		}
		jw.WriteByte('{')
		for i, v := range f.vals {
			if i > 0 {
				jw.WriteByte(',')
			}
			jw.WriteByte('"')
			jw.WriteString(cols[i])
			jw.WriteString(`":`)
			if f.quoted[i] {
				jw.WriteString(strconv.Quote(v))
			} else {
				jw.WriteString(v)
			}
		}
		jw.WriteString("}\n")
		for i, v := range f.vals {
			if i > 0 {
				cw.WriteByte(',')
			}
			cw.WriteString(v)
		}
		cw.WriteByte('\n')
	}
	if err := jw.Flush(); err != nil {
		return err
	}
	if err := cw.Flush(); err != nil {
		return err
	}
	if err := jf.Close(); err != nil {
		return err
	}
	return cf.Close()
}
