package experiments

import (
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"clove/internal/cluster"
	"clove/internal/sim"
)

// traceScale is a trimmed sweep that still exercises every traced stream:
// one load point, two seeds, one clove scheme so weights and flowlets flow.
func traceScale(dir string, parallelism int) Scale {
	sc := Quick()
	sc.TotalJobs = 200
	sc.Seeds = []int64{1, 2}
	sc.Loads = []float64{0.5}
	sc.Parallelism = parallelism
	sc.Telemetry = &TraceSpec{Dir: dir, Interval: sim.Millisecond}
	return sc
}

// readTree returns path->contents for every regular file under root, with
// paths relative to root.
func readTree(t *testing.T, root string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		files[rel] = string(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestTraceFilesDeterministicAcrossParallelism is the ISSUE's trace-level
// determinism gate: the exported trace tree for the same seeds must be
// byte-identical whether the sweep ran serially or on four workers.
func TestTraceFilesDeterministicAcrossParallelism(t *testing.T) {
	dir1, dir4 := t.TempDir(), t.TempDir()
	specs := []Spec{{figure: "trace", schemes: []cluster.Scheme{cluster.SchemeCloveECN}}}
	Run(traceScale(dir1, 1), specs, io.Discard)
	Run(traceScale(dir4, 4), specs, io.Discard)

	tree1 := readTree(t, dir1)
	tree4 := readTree(t, dir4)
	if len(tree1) == 0 {
		t.Fatal("serial sweep exported no trace files")
	}
	if len(tree1) != len(tree4) {
		t.Fatalf("serial run exported %d files, parallel %d", len(tree1), len(tree4))
	}
	var names []string
	for name := range tree1 {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		got, ok := tree4[name]
		if !ok {
			t.Fatalf("parallel run missing %s", name)
		}
		if got != tree1[name] {
			t.Errorf("trace file %s differs between -j1 and -j4", name)
		}
	}

	// Every run directory must carry the five headline streams with data
	// (more rows than just the CSV header).
	dirs := map[string]bool{}
	for _, name := range names {
		dirs[filepath.Dir(name)] = true
	}
	if len(dirs) != 2 { // 1 scheme x 1 load x 2 seeds
		t.Fatalf("expected 2 run directories, got %v", dirs)
	}
	for d := range dirs {
		for _, stream := range []string{"queue", "weights", "cwnd", "flowlet", "fct"} {
			csv, ok := tree1[filepath.Join(d, stream+".csv")]
			if !ok {
				t.Fatalf("%s: missing %s.csv", d, stream)
			}
			if lines := len(splitLines(csv)); lines < 2 {
				t.Errorf("%s: %s.csv has no data rows", d, stream)
			}
		}
	}
}

// TestSummaryTraceDirsNamed: the summary's runs export under their figure's
// name like every other figure's (they used to carry an empty one and land in
// "_ecmp_load050_seed1").
func TestSummaryTraceDirsNamed(t *testing.T) {
	dir := t.TempDir()
	Run(traceScale(dir, 4), []Spec{SummarySpec(0.5)}, nil)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(simSchemes) * 2; len(entries) != want {
		t.Errorf("%d run directories, want %d", len(entries), want)
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "summary_") {
			t.Errorf("run directory %q lacks the summary_ prefix", e.Name())
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "summary_ecmp_load050_seed1", "fct.csv")); err != nil {
		t.Error(err)
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
