package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// OpKind is one kind of request the load generator issues.
type OpKind int

const (
	// OpSubmit is POST /v1/jobs (an arrival of the Poisson stream).
	OpSubmit OpKind = iota
	// OpReadJob is GET /v1/jobs/{id} of a finished job.
	OpReadJob
	// OpReadTrace is the stitched GET /v1/jobs/{id}/trace of a finished job.
	OpReadTrace
	// OpReadFleet is GET /v1/fleet.
	OpReadFleet
	// OpReadMetrics is GET /metrics.
	OpReadMetrics
)

// Op is one scheduled request: what to send and when, relative to the
// start of the phase.
type Op struct {
	Due  time.Duration
	Kind OpKind
}

// ReadStream is the fixed-interval read traffic issued beside the
// arrivals: a job-status or stitched-trace read (alternating) every
// JobEvery, and a /v1/fleet and a /metrics scrape every ScrapeEvery, half
// an interval apart. Zero intervals disable that part.
type ReadStream struct {
	JobEvery    time.Duration
	ScrapeEvery time.Duration
}

// Schedule builds the open-loop plan of one phase: Poisson arrivals at rate
// per second over dur, drawn from seed alone, merged with the read stream.
// The same arguments always give the same plan.
func Schedule(seed int64, rate float64, dur time.Duration, rs ReadStream) []Op {
	rng := rand.New(rand.NewSource(seed))
	var ops []Op
	if rate > 0 {
		for t := 0.0; ; {
			t += rng.ExpFloat64() / rate
			due := time.Duration(t * float64(time.Second))
			if due >= dur {
				break
			}
			ops = append(ops, Op{Due: due, Kind: OpSubmit})
		}
	}
	if rs.JobEvery > 0 {
		kind := OpReadJob
		for due := rs.JobEvery; due < dur; due += rs.JobEvery {
			ops = append(ops, Op{Due: due, Kind: kind})
			kind = OpReadJob + OpReadTrace - kind
		}
	}
	if rs.ScrapeEvery > 0 {
		for due := rs.ScrapeEvery; due < dur; due += rs.ScrapeEvery {
			ops = append(ops, Op{Due: due, Kind: OpReadFleet})
			if m := due + rs.ScrapeEvery/2; m < dur {
				ops = append(ops, Op{Due: m, Kind: OpReadMetrics})
			}
		}
	}
	sort.SliceStable(ops, func(i, k int) bool { return ops[i].Due < ops[k].Due })
	return ops
}

// Timing is the generator's record of one op, both measured from the op's
// due instant: Late is how long it waited for a free worker (generator
// lateness), Latency how long until its response arrived. Timing from the
// due instant charges a stall to every request queued behind it.
type Timing struct {
	Late, Latency time.Duration
}

// RunOpen issues ops at their due instants from one dispatcher onto at most
// workers goroutines, each owning one client. A due op waits for a free
// worker rather than being dropped, so an overloaded system shows up as
// latency and lateness instead of a thinner load. do executes ops[i] on
// worker w; RunOpen returns once every op has finished.
func RunOpen(ops []Op, workers int, do func(w, i int, due time.Time)) []Timing {
	timings := make([]Timing, len(ops))
	work := make(chan int)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range work {
				due := start.Add(ops[i].Due)
				timings[i].Late = time.Since(due)
				do(w, i, due)
				timings[i].Latency = time.Since(due)
			}
		}(w)
	}
	// The runtime's timers round waits below a millisecond up to one, which
	// would make every arrival of a 1000/s stream late; the dispatcher
	// sleeps on its own thread with nanosleep instead.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i, op := range ops {
		sleepUntil(start.Add(op.Due))
		work <- i
	}
	close(work)
	wg.Wait()
	return timings
}

// sleepUntil blocks the calling thread until t.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// RunClosed runs workers closed-loop clients: each calls do back to back
// until dur has passed since the start.
func RunClosed(workers int, dur time.Duration, do func(w int)) {
	end := time.Now().Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(end) {
				do(w)
			}
		}(w)
	}
	wg.Wait()
}
