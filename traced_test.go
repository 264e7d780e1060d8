package clove

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// tracedTreeSHA256 pins the -trace tree of figures 4c, 5a, 6 and 9 at the
// trimmed quick scale below: SHA-256 over every file's (relative path,
// contents) in sorted path order.
const tracedTreeSHA256 = "c9b5eedbfd2177c0257475f1b3455787dbbf6eb31c55ba38ca2846c980edd323"

// treeDigest hashes every regular file under root — path relative to root,
// NUL, contents, NUL — in sorted path order, and counts the top-level run
// directories.
func treeDigest(t *testing.T, root string) (digest string, runDirs int) {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(rel)], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, len(files))
	for rel := range files {
		paths = append(paths, rel)
	}
	sort.Strings(paths)
	h := sha256.New()
	dirs := map[string]bool{}
	for _, rel := range paths {
		dirs[strings.SplitN(rel, "/", 2)[0]] = true
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(files[rel])
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)), len(dirs)
}

// TestTracedFiguresPinned holds the exported telemetry tree of four figures
// that share most of their runs (5a repeats 4c, 6's best variant and 9's
// ECMP/Clove-ECN repeat parts of it) to a committed digest, at -j 1 and
// -j 4: every figure must find every one of its runs under its own
// directory names with the exact bytes, however the runs were produced —
// one figure at a time, or as one plan that simulates each shared run once
// and exports it under every requesting figure's name.
// It is written against the facade only.
func TestTracedFiguresPinned(t *testing.T) {
	ids := []string{"4c", "5a", "6", "9"}
	scale := func(dir string, parallelism int) Scale {
		sc := QuickScale()
		sc.TotalJobs = 200
		sc.Loads = []float64{0.5}
		sc.Seeds = []int64{1, 2}
		sc.Parallelism = parallelism
		sc.Telemetry = &TraceSpec{Dir: dir, Interval: FromDuration(time.Millisecond)}
		return sc
	}
	oneByOne := func(parallelism int) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			for _, id := range ids {
				if _, err := RunFigure(id, scale(dir, parallelism), nil); err != nil {
					t.Fatalf("RunFigure(%q): %v", id, err)
				}
			}
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T, dir string)
	}{
		{"one-by-one-j1", oneByOne(1)},
		{"one-by-one-j4", oneByOne(4)},
		{"one-plan-j4", func(t *testing.T, dir string) {
			if _, err := RunFigures(ids, scale(dir, 4), 0, nil); err != nil {
				t.Fatalf("RunFigures(%v): %v", ids, err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			tc.run(t, dir)
			got, runDirs := treeDigest(t, dir)
			if runDirs != 34 {
				t.Errorf("%d run directories, want 34", runDirs)
			}
			if got != tracedTreeSHA256 {
				t.Errorf("trace tree digest %s, want %s", got, tracedTreeSHA256)
			}
		})
	}
}
