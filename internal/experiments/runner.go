package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// runJobs is the worker pool under Run: it executes fn(i) for every i in
// [0, n) across at most workers goroutines (0 = GOMAXPROCS, the
// Scale.Parallelism convention); with one worker it is a plain serial loop on
// the calling goroutine (the -j 1 path has no goroutine machinery at all).
// fn must confine its writes to index-owned state, and runJobs' return
// happens-before the caller's reads: a plan's jobs each write their own run's
// digest, so every Row and FormatRows byte is identical at any parallelism.
// Each job builds a fully self-contained simulation (cluster.New wires a
// private event heap, RNG, topology, and recorder; no package in the sim
// stack holds mutable package-level state), which determinism_test.go pins
// end-to-end and the -race smoke test checks.
func runJobs(workers, n int, fn func(int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
