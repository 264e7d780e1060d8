package clove

import (
	"flag"
	"fmt"
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
			for _, id := range FigureIDs() {
				id := id
				t.Run(id, func(t *testing.T) {
					t.Parallel()
					sc := QuickScale()
					sc.Parallelism = pass.parallelism
					sc.Oracle = pass.oracle
					rows, err := RunFigure(id, sc, nil)
					if err != nil {
						t.Fatalf("RunFigure(%q): %v", id, err)
					}
					got := FormatRows(rows)
					path := filepath.Join("testdata", "golden", "quick", fmt.Sprintf("fig%s.txt", id))
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
						t.Errorf("fig%s output diverges from %s (-update to accept):\n--- got ---\n%s--- want ---\n%s",
							id, path, got, want)
					}
				})
			}
		})
	}
}
