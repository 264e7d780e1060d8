package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// usage is the process's CPU time so far.
type usage struct{ user, sys time.Duration }

func (u usage) cpu() time.Duration { return u.user + u.sys }

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{user: time.Duration(ru.Utime.Nano()), sys: time.Duration(ru.Stime.Nano())}
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark. Not
// getrusage's ru_maxrss: that one survives exec, so under `go run` it starts
// at the go command's own 21 MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// recordPeakRSS stores peak_rss_mb; call it when measuring ends.
func (r *run) recordPeakRSS() error {
	mb, err := peakRSSMB()
	r.e2e["peak_rss_mb"] = mb
	return err
}

// mallocs reads the cumulative heap-object count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// setupPhase runs one full set-up reps times and records the median wall
// time as setup_s: measured several times so that one slow start does not
// decide it. What a set-up built is torn down by the cleanup it returns,
// outside the timing. A traced run records the set-up's spans.
func (r *run) setupPhase(reps int, setup func() (cleanup func(), err error)) error {
	r.tr.enable(r.traced, 0)
	defer r.tr.enable(false, 0)
	walls := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		cleanup, err := setup()
		wall := time.Since(t0)
		if cleanup != nil {
			cleanup()
		}
		// Collect each repetition's garbage now, so that the repetitions do
		// not pile up into the run's peak RSS.
		runtime.GC()
		if err != nil {
			return err
		}
		walls = append(walls, wall.Seconds())
	}
	r.e2e["setup_s"] = median(walls)
	return nil
}
