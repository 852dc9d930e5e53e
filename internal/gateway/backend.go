// Package gateway is the fleet front tier: one HTTP frontend multiplexing
// arrivals across N serving nodes, routing each job to the node reporting
// the most laxity headroom, health-checking every node with per-node circuit
// breakers, and journaling every accepted job so node death never loses one.
//
// The layering mirrors serve's: Backend abstracts "one node" (an in-process
// serve.Driver or a remote laxd daemon — the gateway cannot tell them
// apart), ChaosBackend injects node-level faults at exactly the boundary a
// real network failure would hit, Breaker turns probe outcomes into a
// health state machine, and Gateway owns the journal, the router and the
// failover logic. Every guarantee the gateway makes is checked by
// verify.CheckFleet.
package gateway

import (
	"errors"

	"laxgpu/internal/cp"
	"laxgpu/internal/gpu"
	"laxgpu/internal/metrics"
	"laxgpu/internal/obs"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/verify"
	"laxgpu/internal/workload"
)

// ErrBackendUnavailable is returned by a backend whose accept queue is full
// or whose driver has stopped — the gateway treats it like any other failed
// call: a strike against the node's breaker.
var ErrBackendUnavailable = errors.New("gateway: backend not accepting work")

// Headroom is one node's self-reported capacity to absorb work, as returned
// by a probe. The router scores placement on Drain: the node's own
// Algorithm 1 estimate of how long it needs to finish everything already
// admitted.
type Headroom struct {
	// Drain is the predicted time to finish all admitted unfinished work.
	Drain sim.Time

	// Unfinished counts admitted, non-terminal jobs on the node.
	Unfinished int

	// Capacity is the node's device count (routing weight).
	Capacity int

	// CapacityFrac is the fraction of the node's compute capacity still
	// alive after CU retirements, in (0, 1]. Values ≤ 0 mean the node did
	// not report one (older backends) and the gateway assumes full health.
	// The router weighs placement by it, and the autoscaler treats a
	// shrinking fraction as a capacity-loss signal.
	CapacityFrac float64

	// Draining marks a node refusing new work (graceful shutdown).
	Draining bool
}

// Verdict is a node's admission answer for one submitted job.
type Verdict struct {
	// Accepted reports Algorithm 1's verdict on the node.
	Accepted bool

	// Retry is the node's drain estimate handed back with a rejection.
	Retry sim.Time

	// RemoteID is the node-local identifier of an accepted job — the handle
	// the gateway needs to fetch the node's side of the job's trace.
	RemoteID int64
}

// Outcome is the terminal report a backend delivers through the done
// callback exactly once per successful Submit (unless the node dies first).
type Outcome struct {
	// Terminal is the verify.Fleet* state: "done", "fallback" or
	// "cancelled".
	Terminal string

	// Met reports whether the job met its deadline.
	Met bool

	// FellBack reports completion on the CPU fallback path.
	FellBack bool

	// Latency is arrival-to-finish in simulated time.
	Latency sim.Time

	// Cause is the node's dominant-cause verdict for a missed deadline (the
	// metrics.ClassifyMiss taxonomy); empty when the deadline was met or the
	// node did not classify.
	Cause string
}

// Job is the gateway's view of one submission: the sampled kernel chain
// plus the routing estimate, ready to hand to whichever node (or nodes,
// after failover) ends up running it.
type Job struct {
	// ID is the gateway-wide identifier.
	ID int64

	// Benchmark names the workload.
	Benchmark string

	// Deadline is the relative deadline.
	Deadline sim.Time

	// Class is the job's criticality (shedding order under overload).
	Class Class

	// Kernels is the sampled kernel chain, reused verbatim on re-dispatch
	// so a failed-over job is byte-identical to the original.
	Kernels []*gpu.KernelDesc

	// Est is the serial device-time estimate fed to the router.
	Est sim.Time

	// TraceID is the gateway-minted W3C trace ID, propagated to whichever
	// node runs the job (traceparent header for remote nodes) so the job's
	// spans stitch across processes. Re-dispatches reuse it.
	TraceID string
}

// TraceSource is the optional Backend extension behind the gateway's
// stitched trace endpoint: given the node-local job ID and the trace ID, it
// returns the node's recorded timeline. Backends without tracing simply
// don't implement it.
type TraceSource interface {
	// JobTrace fetches the node-side trace of one dispatched job.
	JobTrace(remoteID int64, traceID string) (obs.WireTrace, bool)
}

// Backend is one serving node as the gateway sees it. Implementations:
// InprocBackend (a serve.Driver in this process), RemoteBackend (a laxd
// daemon over HTTP) and ChaosBackend (either of those behind a fault plan).
//
// Submit and Probe may block; the gateway never calls them while holding
// its own lock. done fires on the backend's own goroutine — at most once
// per accepted Submit — and may call back into the gateway.
type Backend interface {
	// Name identifies the node in journals, metrics and logs.
	Name() string

	// Probe returns the node's live headroom, or an error when the node is
	// unreachable. A probe doubles as the gateway's heartbeat.
	Probe(now sim.Time) (Headroom, error)

	// Submit offers the job to the node. The error path means the node
	// never saw the job (safe to re-dispatch); a Verdict means the node
	// decided. done fires when an accepted job reaches a terminal state.
	Submit(now sim.Time, job *Job, done func(Outcome)) (Verdict, error)
}

// InprocBackend runs one serve.Node behind its Driver inside the gateway
// process — the fleet-in-a-box configuration laxgw uses by default, and the
// deterministic substrate of the chaos tests.
type InprocBackend struct {
	name   string
	node   *serve.Node
	driver *serve.Driver

	// tracer records per-job timelines when tracing is enabled; nil when
	// disabled (never wrapped as a typed-nil obs.Probe).
	tracer *obs.TraceRecorder

	// pending maps the node's dense local job IDs to done callbacks.
	// Touched only on the driver goroutine.
	pending map[int]pendingJob
}

type pendingJob struct {
	jr   *cp.JobRun
	done func(Outcome)
}

// InprocConfig configures one in-process backend node.
type InprocConfig struct {
	// Name identifies the node (default "nodeN" is chosen by the caller).
	Name string

	// Node configures the underlying serving device; the Probe field is
	// reserved for the backend's own completion recorder.
	Node serve.NodeConfig

	// Clock paces the driver (required; share one clock fleet-wide).
	Clock serve.Clock

	// AcceptQueue bounds the driver's command queue (default 64).
	AcceptQueue int

	// Registry optionally collects the node's scheduler metrics.
	Registry *obs.Registry

	// TraceDepth sizes the node's finished-trace ring (0 = default 256,
	// negative disables tracing entirely).
	TraceDepth int
}

// NewInprocBackend builds and starts one in-process node.
func NewInprocBackend(cfg InprocConfig) (*InprocBackend, error) {
	b := &InprocBackend{name: cfg.Name, pending: make(map[int]pendingJob)}
	nodeCfg := cfg.Node
	probe := obs.Probe((*inprocRecorder)(b))
	if cfg.Registry != nil {
		probe = obs.Multi(obs.NewMetricsWithRegistry(cfg.Registry), probe)
	}
	if cfg.TraceDepth >= 0 {
		b.tracer = obs.NewTraceRecorder(cfg.TraceDepth)
		probe = obs.Multi(probe, b.tracer)
	}
	nodeCfg.Probe = probe
	node, err := serve.NewNode(nodeCfg)
	if err != nil {
		return nil, err
	}
	b.node = node
	b.driver = serve.NewDriver(node, cfg.Clock, cfg.AcceptQueue)
	b.driver.Start()
	return b, nil
}

// Name implements Backend.
func (b *InprocBackend) Name() string { return b.name }

// JobTrace implements TraceSource: the node's recorded timeline for one
// dispatched job, keyed by the gateway-minted trace ID.
func (b *InprocBackend) JobTrace(remoteID int64, traceID string) (obs.WireTrace, bool) {
	if b.tracer == nil {
		return obs.WireTrace{}, false
	}
	t, ok := b.tracer.GetByID(traceID)
	if !ok {
		return obs.WireTrace{}, false
	}
	return t.Wire(b.name), true
}

// Driver exposes the backend's pacing driver (shutdown, tests).
func (b *InprocBackend) Driver() *serve.Driver { return b.driver }

// Probe implements Backend: the node's own drain estimate, read on the
// driver goroutine.
func (b *InprocBackend) Probe(now sim.Time) (Headroom, error) {
	var h Headroom
	if !b.driver.Call(func() {
		dev := b.node.System().Device()
		frac := 1.0
		if total := dev.ActiveCUs() + dev.RetiredCUsCount(); total > 0 {
			frac = float64(dev.ActiveCUs()) / float64(total)
		}
		h = Headroom{
			Drain:        b.node.EstimateDrain(),
			Unfinished:   b.node.UnfinishedCount(),
			Capacity:     1,
			CapacityFrac: frac,
		}
	}) {
		return Headroom{}, ErrBackendUnavailable
	}
	return h, nil
}

// Submit implements Backend: the full host-side offload decision runs
// inline on the driver goroutine; done is registered before Submit returns,
// so no completion can slip between the verdict and the registration.
func (b *InprocBackend) Submit(now sim.Time, job *Job, done func(Outcome)) (Verdict, error) {
	var v Verdict
	if !b.driver.Call(func() {
		wj := &workload.Job{
			Benchmark: job.Benchmark,
			Deadline:  job.Deadline,
			Kernels:   job.Kernels,
		}
		jr := b.node.Submit(wj)
		if jr.Rejected() {
			v = Verdict{Accepted: false, Retry: b.node.EstimateDrain()}
			return
		}
		v = Verdict{Accepted: true, RemoteID: int64(wj.ID)}
		if b.tracer != nil && job.TraceID != "" {
			b.tracer.Assign(wj.ID, job.TraceID)
		}
		b.pending[wj.ID] = pendingJob{jr: jr, done: done}
	}) {
		return Verdict{}, ErrBackendUnavailable
	}
	return v, nil
}

// inprocRecorder is the backend's probe alias: terminal job events fire the
// registered done callbacks on the driver goroutine.
type inprocRecorder InprocBackend

// Job implements obs.Probe.
func (r *inprocRecorder) Job(e obs.JobEvent) {
	if e.Kind != obs.JobFinish && e.Kind != obs.JobCancel {
		return
	}
	p, ok := r.pending[e.Job]
	if !ok {
		return
	}
	delete(r.pending, e.Job)
	out := Outcome{Terminal: verify.FleetCancelled, Cause: metrics.ClassifyMiss(p.jr).String()}
	if e.Kind == obs.JobFinish {
		out = Outcome{
			Terminal: verify.FleetDone,
			Met:      e.Met,
			FellBack: p.jr.FellBack,
			Latency:  p.jr.Latency(),
		}
		if !e.Met {
			out.Cause = metrics.ClassifyMiss(p.jr).String()
		}
	}
	p.done(out)
}

// Admission implements obs.Probe.
func (r *inprocRecorder) Admission(obs.AdmissionDecision) {}

// Epoch implements obs.Probe.
func (r *inprocRecorder) Epoch(obs.EpochSnapshot) {}

// Sample implements obs.Probe.
func (r *inprocRecorder) Sample(obs.JobSample) {}

// TableRefresh implements obs.Probe.
func (r *inprocRecorder) TableRefresh(obs.TableRefresh) {}

// KernelStart implements obs.Probe.
func (r *inprocRecorder) KernelStart(obs.KernelStart) {}

// KernelDone implements obs.Probe.
func (r *inprocRecorder) KernelDone(obs.KernelDone) {}
