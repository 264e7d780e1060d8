package clove

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current simulator output")

// TestGoldenFiguresQuick pins the quick-scale output of every reproducible
// figure, and of the headline summary, byte-for-byte against
// testdata/golden/quick/. Two full passes run, each as one plan over all
// eleven (what `clovesim -fig all` does), so a simulation several figures
// share runs once per pass: serial (-j 1) with the correctness oracle
// installed — so every distinct run is also certified against the
// conservation/TCP/pool/queue/flowlet invariants — and parallel (-j 4)
// without it, proving worker-pool scheduling cannot leak into results. The
// passes run back to back: side by side on two cores the -j 4 pass's four
// workers crowd the serial pass onto a fraction of a core, and the test
// takes a third longer than it does this way. Any intentional simulator
// change regenerates the files with
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
			sc := QuickScale()
			sc.Parallelism = pass.parallelism
			sc.Oracle = pass.oracle
			ids := append(FigureIDs(), "summary")
			figs, err := RunFigures(ids, sc, 0.7, nil)
			if err != nil {
				t.Fatalf("RunFigures(%v): %v", ids, err)
			}
			for i, id := range ids {
				// What `clovesim -fig <id> -scale quick` prints.
				name, got := "fig"+id, FormatRows(figs[i])
				if id == "summary" {
					name, got = id, Headline(figs[i]).String()+"\n"
				}
				t.Run(id, func(t *testing.T) {
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
				})
			}
		})
	}
}
