package main

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"laxgpu/internal/gateway"
	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
)

// spanHeader carries the client span's ID to the gateway handler span, so
// the front network time is the client span's self time.
const spanHeader = "X-Bench-Span"

// tap records spans around each layer's public entry points for a traced
// run: HTTP middleware in front of the gateway's and each laxd's handler,
// and a Backend decorator between the gateway and each node.
type tap struct {
	rec *Recorder

	// hopSpans maps a job's trace ID to its hop.submit span, the parent
	// of the laxd handler span that receives the same traceparent.
	hopSpans sync.Map

	polls    atomic.Int64 // GET /v1/jobs/{id} served by laxd (completion polls)
	outcomes atomic.Int64 // terminal outcomes remote nodes delivered
	conns    atomic.Int64 // TCP connections the laxd listeners accepted
}

func newTap(rec *Recorder) *tap { return &tap{rec: rec} }

// reset drops set-up traffic from the spans and counters.
func (t *tap) reset() {
	t.rec.Reset()
	t.polls.Store(0)
	t.outcomes.Store(0)
	t.conns.Store(0)
}

// gateway wraps the gateway's HTTP handler: POST /v1/jobs is a
// gateway.submit span, every GET a gateway.read span. A submission's span
// takes the job ID from the 202 body, which links it to the Backend.Submit
// span the gateway made for that job (see LinkByJob).
func (t *tap) gateway(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		id, start := t.rec.Begin()
		if r.Method != http.MethodPost {
			next.ServeHTTP(w, r)
			t.rec.Finish(id, parent, "gateway.read", -1, start)
			return
		}
		cw := &captureWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		t.rec.Finish(id, parent, "gateway.submit", cw.jobID(), start)
	})
}

// captureWriter keeps a copy of the response body.
type captureWriter struct {
	http.ResponseWriter
	body []byte
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.body = append(c.body, p...)
	return c.ResponseWriter.Write(p)
}

// jobID is the job ID of an accepted submission's body, or -1 (a refusal
// body carries none).
func (c *captureWriter) jobID() int64 {
	rp := reply{ID: -1}
	if json.Unmarshal(c.body, &rp) != nil {
		return -1
	}
	return rp.ID
}

// laxd wraps one laxd's HTTP handler. A submission links to the hop span
// that sent it through the propagated traceparent.
func (t *tap) laxd(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var name string
		var parent int64
		switch p := r.URL.Path; {
		case r.Method == http.MethodPost && p == "/v1/jobs":
			name = "serve.submit"
			if tid, _, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
				if v, ok := t.hopSpans.Load(tid); ok {
					parent = v.(int64)
				}
			}
		case strings.HasSuffix(p, "/trace"):
			name = "serve.trace"
		case strings.HasPrefix(p, "/v1/jobs/"):
			name = "serve.status"
			t.polls.Add(1)
		default:
			name = "serve.other"
		}
		id, start := t.rec.Begin()
		next.ServeHTTP(w, r)
		t.rec.Finish(id, parent, name, -1, start)
	})
}

// tracedBackend times Submit, Probe and JobTrace of the node it wraps. It
// implements gateway.TraceSource by forwarding, or stitched traces would
// lose their node spans.
type tracedBackend struct {
	gateway.Backend
	t     *tap
	layer string // "hop" for a RemoteBackend, "node" for an InprocBackend
}

var _ gateway.TraceSource = (*tracedBackend)(nil)

// Submit implements gateway.Backend.
func (b *tracedBackend) Submit(now sim.Time, job *gateway.Job, done func(gateway.Outcome)) (gateway.Verdict, error) {
	rec := b.t.rec
	id, start := rec.Begin()
	if b.layer == "hop" {
		b.t.hopSpans.Store(job.TraceID, id)
		defer b.t.hopSpans.Delete(job.TraceID)
		inner := done
		done = func(o gateway.Outcome) {
			b.t.outcomes.Add(1)
			inner(o)
		}
	}
	v, err := b.Backend.Submit(now, job, done)
	rec.Finish(id, 0, b.layer+".submit", job.ID, start)
	return v, err
}

// Probe implements gateway.Backend.
func (b *tracedBackend) Probe(now sim.Time) (gateway.Headroom, error) {
	id, start := b.t.rec.Begin()
	h, err := b.Backend.Probe(now)
	b.t.rec.Finish(id, 0, "gateway.probe", -1, start)
	return h, err
}

// JobTrace implements gateway.TraceSource.
func (b *tracedBackend) JobTrace(remoteID int64, traceID string) (obs.WireTrace, bool) {
	ts, ok := b.Backend.(gateway.TraceSource)
	if !ok {
		return obs.WireTrace{}, false
	}
	id, start := b.t.rec.Begin()
	wt, found := ts.JobTrace(remoteID, traceID)
	b.t.rec.Finish(id, 0, b.layer+".trace_fetch", -1, start)
	return wt, found
}
