package sched

import (
	"cmp"
	"slices"

	"laxgpu/internal/cp"
	"laxgpu/internal/sim"
)

// premaInterval is PREMA's scheduling epoch ("Like the authors, we use a
// 250 µs preemption interval", §5.1).
const premaInterval = 250 * sim.Microsecond

// premaSaveRestoreBytesPerNs is the context save/restore bandwidth used to
// charge preemption cost: ~100 GB/s of on-package bandwidth moving the
// preempted kernel's register/LDS context (Table 1 context sizes).
const premaSaveRestoreBytesPerNs = 100

// PREMA is the predictive multi-task preemptive scheduler of [79], adapted
// as in §5.1: originally designed for an NPU running one large job, it is
// extended here to run multiple concurrent jobs (our workloads underfill
// the GPU). Every 250 µs it computes a token per job — the product of its
// (uniform) user priority and its predicted slowdown — and grants the
// device to the highest-token jobs, preempting the rest at a context
// save/restore cost.
type PREMA struct {
	sys *cp.System

	// ideal is each job's predicted isolated time, by Job.ID, computed once
	// at admission: the device config it derives from is immutable.
	ideal []sim.Time

	// ranked is the epoch's ranking buffer, reused across epochs.
	ranked []premaKey
}

// premaKey is one job's token for the current epoch. The token depends only
// on the job and Now(), which is fixed within an epoch, so it is computed
// once per job and the sort compares keys.
type premaKey struct {
	j     *cp.JobRun
	token float64
}

// NewPREMA returns the PREMA scheduler.
func NewPREMA() *PREMA { return &PREMA{} }

// Name implements cp.Policy.
func (p *PREMA) Name() string { return "PREMA" }

// Attach implements cp.Policy.
func (p *PREMA) Attach(s *cp.System) { p.sys = s }

// Admit implements cp.Policy: PREMA has no deadline-based admission.
func (p *PREMA) Admit(j *cp.JobRun) bool {
	j.Priority = 0
	if id := j.Job.ID; id >= len(p.ideal) {
		p.ideal = append(p.ideal, make([]sim.Time, id+1-len(p.ideal))...)
	}
	p.ideal[j.Job.ID] = max(staticJobTime(p.sys.Device().Config(), j), 1)
	probeAdmission(p.sys, p.Name(), j, true)
	return true
}

// token computes PREMA's scheduling token: slowdown = elapsed / predicted
// isolated time. Jobs that have waited long relative to their size
// accumulate tokens and win the next epoch (PREMA "reactively predicts
// based on feedback from running jobs", §6.1.2).
func (p *PREMA) token(j *cp.JobRun) float64 {
	elapsed := max(p.sys.Now()-j.SubmitTime, 0)
	return float64(elapsed) / float64(p.ideal[j.Job.ID])
}

// Reprioritize implements cp.Policy: one PREMA epoch. Rank jobs by token,
// grant the device to the top jobs until the device's thread capacity is
// covered, pause the rest, and charge a stall for every preempted job that
// had work in flight.
func (p *PREMA) Reprioritize() {
	probeEpoch(p.sys, p.Name())
	active := p.sys.Active()
	if len(active) == 0 {
		return
	}
	ranked := p.ranked[:0]
	for _, j := range active {
		ranked = append(ranked, premaKey{j, p.token(j)})
	}
	slices.SortStableFunc(ranked, func(a, b premaKey) int {
		if a.token != b.token {
			return cmp.Compare(b.token, a.token)
		}
		return cmp.Compare(a.j.SubmitTime, b.j.SubmitTime)
	})
	p.ranked = ranked

	// The granted jobs are the ranking's prefix ranked[:granted].
	capacity := p.sys.Device().Config().TotalThreads()
	granted, demand := 0, 0
	for ; granted < len(ranked) && demand < capacity; granted++ {
		if k := ranked[granted].j.Current(); k != nil {
			demand += k.Desc.TotalThreads()
		}
	}

	// Resume the granted jobs in rank order and preempt the rest; a job
	// descheduled while it has WGs in flight pays for saving its kernel
	// context (newly paused only — an already-parked job costs nothing
	// more).
	var preemptBytes int
	for rank, key := range ranked {
		j := key.j
		if rank < granted {
			j.Resume()
			j.Priority = int64(rank)
			continue
		}
		if !j.Paused() {
			if k := j.Current(); k != nil && k.OutstandingWGs() > 0 {
				preemptBytes += k.Desc.ContextBytes()
			}
		}
		j.Pause()
		j.Priority = int64(len(ranked) + 1)
	}

	if preemptBytes > 0 {
		stall := sim.Time(preemptBytes / premaSaveRestoreBytesPerNs)
		if stall > 0 {
			p.sys.Device().Stall(stall)
		}
	}
	probeSamples(p.sys)
}

// Interval implements cp.Policy: the 250 µs preemption epoch.
func (p *PREMA) Interval() sim.Time { return premaInterval }

// Overheads implements cp.Policy: PREMA extends the accelerator's
// scheduler; no host communication per kernel.
func (p *PREMA) Overheads() cp.Overheads { return cp.Overheads{} }
