package clove

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenScenariosQuick pins the quick-scale output of every embedded
// scenario byte-for-byte against testdata/golden/scenarios/. As with the
// figure goldens, two passes run: serial (-j 1) under the correctness oracle
// — certifying every scripted flap, switch failure, and load ramp against
// the conservation/pool invariants — and parallel (-j 4) without it, so the
// scripted timelines stay byte-identical at any -j. The passes share no
// state and run as parallel subtests. Regenerate with
// `go test -run TestGoldenScenariosQuick -update`, under which only the
// serial pass runs, since it is the writer.
func TestGoldenScenariosQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario golden regression is minutes of simulation; skipped in -short")
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
			for _, name := range ScenarioNames() {
				sp, err := LoadScenario(name)
				if err != nil {
					t.Fatalf("LoadScenario(%q): %v", name, err)
				}
				rows := RunScenario(sp, ScenarioOpts{
					Quick:       true,
					Parallelism: pass.parallelism,
					Oracle:      pass.oracle,
				}, nil)
				got := FormatRows(rows)
				path := filepath.Join("testdata", "golden", "scenarios", fmt.Sprintf("%s.txt", name))
				if *updateGolden {
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatalf("update golden %s: %v", path, err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden (run with -update to create): %v", err)
				}
				if got != string(want) {
					t.Errorf("scenario %s output diverges from %s (-update to accept):\n--- got ---\n%s--- want ---\n%s",
						name, path, got, want)
				}
			}
		})
	}
}
