package serve

import (
	"sync"

	"laxgpu/internal/cp"
	"laxgpu/internal/sim"
)

// JobStatus is a snapshot of one submitted job, as served on
// GET /v1/jobs/{id} and on the event stream.
type JobStatus struct {
	// ID is the server-wide job identifier.
	ID int64 `json:"id"`

	// Benchmark names the workload the job belongs to.
	Benchmark string `json:"benchmark"`

	// Device is the index of the GPU the router placed the job on.
	Device int `json:"device"`

	// State is the job's pipeline state: "admitted" until a terminal
	// transition, then "done", "cancelled" or "rejected".
	State string `json:"state"`

	// Admitted reports the Algorithm 1 verdict.
	Admitted bool `json:"admitted"`

	// MetDeadline reports whether a finished job completed by its deadline.
	MetDeadline bool `json:"met_deadline"`

	// FellBack reports that the job completed on the CPU fallback path
	// (recovery or forced drain), not the GPU.
	FellBack bool `json:"fell_back"`

	// DeadlineUs is the job's relative deadline in microseconds.
	DeadlineUs int64 `json:"deadline_us"`

	// LatencyUs is arrival-to-finish in simulated microseconds (finished
	// jobs only).
	LatencyUs int64 `json:"latency_us,omitempty"`

	// RetryAfterUs is the predicted queue-drain time handed to rejected
	// jobs, in simulated microseconds.
	RetryAfterUs int64 `json:"retry_after_us,omitempty"`

	// Reason is the machine-readable reject reason (the Reason* constants)
	// for jobs that never ran; empty for accepted jobs.
	Reason string `json:"reason,omitempty"`

	// TraceID is the job's W3C trace ID: adopted from the submitter's
	// traceparent header when present, minted otherwise. The full timeline
	// is served on GET /v1/jobs/{id}/trace.
	TraceID string `json:"trace_id,omitempty"`

	// MissCause is the dominant-cause verdict for jobs that missed their
	// deadline (the metrics.ClassifyMiss taxonomy); empty while running and
	// for jobs that met it.
	MissCause string `json:"miss_cause,omitempty"`
}

// record is the server-side state behind a JobStatus. Mutable fields are
// guarded by the owning recordTable's mutex; run is only touched on the
// driver goroutine of the owning device, and is dropped once the job is
// terminal so a finished record pins no simulation state.
type record struct {
	status   JobStatus
	client   string
	run      *cp.JobRun
	done     chan struct{} // closed at the first terminal transition
	terminal bool
}

// spentDone replaces a record's done channel once it is closed, so the
// table does not keep a spent channel per finished job.
var spentDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// recordTable is the bounded registry of submitted jobs. Eviction is FIFO
// once max is exceeded — long-running servers keep memory flat and clients
// are expected to read outcomes promptly (or listen on the event stream).
type recordTable struct {
	mu    sync.Mutex
	max   int
	byID  map[int64]*record
	order []int64
}

func newRecordTable(max int) *recordTable {
	if max < 1 {
		max = 65536
	}
	return &recordTable{max: max, byID: make(map[int64]*record)}
}

// add registers a record, evicting the oldest entries beyond the cap.
func (t *recordTable) add(r *record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.byID[r.status.ID] = r
	t.order = append(t.order, r.status.ID)
	for len(t.order) > t.max {
		evict := t.order[0]
		t.order = t.order[1:]
		delete(t.byID, evict)
	}
}

// get returns a snapshot of the record's status.
func (t *recordTable) get(id int64) (JobStatus, bool) {
	r, ok := t.lookup(id)
	if !ok {
		return JobStatus{}, false
	}
	return t.status(r), true
}

// lookup returns the record itself, so a caller can wait on its done
// channel. The record stays valid after eviction.
func (t *recordTable) lookup(id int64) (*record, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.byID[id]
	return r, ok
}

// status returns a snapshot of the record's status.
func (t *recordTable) status(r *record) JobStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	return r.status
}

// doneCh returns the channel closed at the record's first terminal
// transition.
func (t *recordTable) doneCh(r *record) <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	return r.done
}

// update mutates a record's status under the table lock and reports whether
// this call made it terminal (closing the record's done channel exactly
// once).
func (t *recordTable) update(r *record, fn func(*JobStatus), terminal bool) (JobStatus, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fn(&r.status)
	first := false
	if terminal && !r.terminal {
		r.terminal = true
		first = true
		close(r.done)
		r.done = spentDone
	}
	return r.status, first
}

func usOf(t sim.Time) int64 { return int64(t / sim.Microsecond) }
