package clove

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current simulator output")

// TestGoldenFiguresQuick pins the quick-scale output of every reproducible
// figure byte-for-byte against testdata/golden/quick/. Two full passes run:
// serial (-j 1) with the correctness oracle installed — so every figure is
// also certified against the conservation/TCP/pool/queue/flowlet invariants
// — and parallel (-j 4) without it, proving worker-pool scheduling cannot
// leak into results. The passes, and the figures inside each, share no
// state and run as parallel subtests: on two cores the one-core serial pass
// would otherwise leave a core idle (back to back) or fair-share with the
// -j 4 pass's four workers and finish later than it does alone. Any
// intentional simulator change regenerates the files with
// `go test -run TestGoldenFiguresQuick -update`, under which only the serial
// pass runs, since it is the writer.
func TestGoldenFiguresQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("golden figure regression is minutes of simulation; skipped in -short")
	}
	passes := []struct {
		name        string
		parallelism int
		oracle      bool
	}{
		{"serial-oracle", 1, true},
		{"parallel-j4", 4, false},
	}
	for _, pass := range passes {
		pass := pass
		t.Run(pass.name, func(t *testing.T) {
			if *updateGolden && pass.name != "serial-oracle" {
				t.Skip("-update: only the serial pass runs, since it is the writer")
			}
			t.Parallel()
			compare := func(t *testing.T, name, got string) {
				t.Helper()
				path := filepath.Join("testdata", "golden", "quick", name+".txt")
				if *updateGolden {
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatalf("update golden %s: %v", path, err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden (run with -update to create): %v", err)
				}
				if got != string(want) {
					t.Errorf("%s output diverges from %s (-update to accept):\n--- got ---\n%s--- want ---\n%s",
						name, path, got, want)
				}
			}
			scale := func() Scale {
				sc := QuickScale()
				sc.Parallelism = pass.parallelism
				sc.Oracle = pass.oracle
				return sc
			}
			for _, id := range FigureIDs() {
				id := id
				t.Run(id, func(t *testing.T) {
					t.Parallel()
					rows, err := RunFigure(id, scale(), nil)
					if err != nil {
						t.Fatalf("RunFigure(%q): %v", id, err)
					}
					compare(t, "fig"+id, FormatRows(rows))
				})
			}
			// What `clovesim -fig summary -scale quick` prints.
			t.Run("summary", func(t *testing.T) {
				t.Parallel()
				compare(t, "summary", RunSummary(scale(), 0.7, nil).String()+"\n")
			})
		})
	}
}
