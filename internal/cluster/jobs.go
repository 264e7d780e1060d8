package cluster

import (
	"fmt"

	"clove/internal/sim"
)

// MixResult is the outcome of one open-loop run (RunWebSearch or RunMix).
type MixResult struct {
	Completed int
	Issued    int
	// TimedOut reports that MaxSimTime elapsed before all jobs finished
	// (expected under unrecovered failures, which strand in-flight jobs).
	TimedOut bool
}

// WebSearchResult is the outcome of one RunWebSearch run.
type WebSearchResult = MixResult

// jobs is the bookkeeping every workload driver shares: it issues jobs on
// connections, records each finished job in c.Recorder and the trace's FCT
// stream, counts issued and completed jobs and delivered bytes, and stops
// the run when the target completes.
type jobs struct {
	c                 *Cluster
	target            int
	issued, completed int
	bytes             int64
}

// flow starts a single-flow job of size bytes on conn.
func (j *jobs) flow(conn *Conn, size int64) {
	j.issued++
	conn.startJobCall(size, flowDone, j, conn)
}

// flowDone finishes a single-flow job (a static tcp.JobFunc, so a job
// allocates no callback).
func flowDone(a, b any, size int64, fct sim.Time) {
	j, conn := a.(*jobs), b.(*Conn)
	j.c.Recorder.Add(size, fct)
	if tr := j.c.trace; tr != nil {
		tr.FCT(j.c.Sim.Now(), conn.Flow.Src, conn.Flow.Dst, size, fct)
	}
	j.bytes += size
	j.done()
}

// fanIn starts a fan-in job: shard bytes on conns[i] for each i in idx, or
// on every conn when idx is nil. Each shard is traced as it lands; the
// recorder sees one sample whose FCT spans issue to the slowest shard, the
// paper's partition–aggregate metric. then, if non-nil, runs after the job
// completes.
func (j *jobs) fanIn(conns []*Conn, idx []int, shard int64, then func()) {
	n := len(idx)
	if idx == nil {
		n = len(conns)
	}
	f := &fanInJob{j: j, pending: n, shard: shard, total: shard * int64(n), start: j.c.Sim.Now(), then: then}
	j.issued++
	for i := 0; i < n; i++ {
		conn := conns[i]
		if idx != nil {
			conn = conns[idx[i]]
		}
		conn.startJobCall(shard, shardLanded, f, conn)
	}
}

// shardLanded finishes one shard of a fan-in job (a static tcp.JobFunc).
func shardLanded(a, b any, _ int64, _ sim.Time) { a.(*fanInJob).land(b.(*Conn)) }

// fanInJob is one fan-in job in flight.
type fanInJob struct {
	j       *jobs
	pending int
	shard   int64
	total   int64
	start   sim.Time
	then    func()
}

// land finishes one shard; the last one finishes the job.
func (f *fanInJob) land(conn *Conn) {
	j := f.j
	now := j.c.Sim.Now()
	if tr := j.c.trace; tr != nil {
		tr.FCT(now, conn.Flow.Src, conn.Flow.Dst, f.shard, now-f.start)
	}
	j.bytes += f.shard
	f.pending--
	if f.pending > 0 {
		return
	}
	j.c.Recorder.Add(f.total, now-f.start)
	j.done()
	if f.then != nil {
		f.then()
	}
}

// done counts a completed job; the one that reaches the target stops the
// run.
func (j *jobs) done() {
	j.completed++
	if j.completed == j.target {
		j.c.Sim.Stop()
	}
}

// poisson starts an open-loop arrival chain of n jobs, each issued by
// issue, adding n to the target. Inter-arrival gaps are exponential at
// rate jobs per second times the cluster's load scale, each drawn when the
// previous arrival fires so a mid-run SetLoadScale bends the process at
// once; the first arrival waits start plus one gap. A chain draws a gap
// after its last job too: that arrival finds nothing left and is a no-op.
func (j *jobs) poisson(rate float64, n int, start sim.Time, issue func()) {
	if !(rate > 0) {
		panic(fmt.Sprintf("cluster: arrival rate %v", rate))
	}
	j.target += n
	ch := &chain{j: j, rate: rate, left: n, issue: issue}
	j.c.Sim.AfterCall(start+ch.gap(), chainArrive, ch, nil)
}

// chain is one open-loop arrival process.
type chain struct {
	j     *jobs
	rate  float64
	left  int
	issue func()
}

func (ch *chain) gap() sim.Time {
	c := ch.j.c
	return sim.FromSeconds(c.Sim.Rand().ExpFloat64() / (ch.rate * c.loadScale))
}

// chainArrive is a chain's arrival event (a static sim.EventFunc, so an
// arrival allocates nothing).
func chainArrive(a, _ any) {
	ch := a.(*chain)
	if ch.left == 0 {
		return
	}
	ch.left--
	ch.issue()
	ch.j.c.Sim.AfterCall(ch.gap(), chainArrive, ch, nil)
}

// run simulates until the target completes or maxSim (0: ten minutes of
// simulated time) cuts the run off.
func (j *jobs) run(maxSim sim.Time) MixResult {
	if maxSim == 0 {
		maxSim = 600 * sim.Second
	}
	j.c.Sim.RunUntil(maxSim)
	// Against target, not issued: a run cut off between arrivals has
	// completed everything it issued and still fell short.
	return MixResult{Completed: j.completed, Issued: j.issued, TimedOut: j.completed < j.target}
}
