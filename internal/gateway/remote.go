package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"laxgpu/internal/obs"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/verify"
)

// RemoteBackend fronts one laxd daemon over HTTP: probes hit GET
// /v1/headroom, submissions POST /v1/jobs without waiting, and each
// accepted job is followed by a waiting GET /v1/jobs/{id}?wait=1 that laxd
// answers the moment the job turns terminal. The gateway cannot tell it
// apart from an in-process node — which is the point: the chaos suite
// exercises failover in-process, and the same journal and breakers protect
// a real fleet.
type RemoteBackend struct {
	name   string
	base   string
	client *http.Client

	// Poll is the wall backoff before re-issuing a completion wait that
	// failed in transport, e.g. against a dead node (default 25ms).
	Poll time.Duration

	ctx       context.Context // cancelled by Close; every request carries it
	cancel    context.CancelFunc
	followers sync.WaitGroup // one per accepted job still being followed
}

// remoteIdlePerHost is the default client's idle-connection pool per node.
// Every accepted job holds one waiting GET, so the pool keeps as many warm
// connections as laxd lets one client have jobs in flight (its default
// MaxPerClient); net/http's default of 2 would redial for most of them.
const remoteIdlePerHost = 64

// NewRemoteBackend fronts the laxd daemon at base (e.g.
// "http://127.0.0.1:8080"). name identifies it in journals and metrics. A
// nil client selects a 5 s timeout over a pooled transport of its own.
func NewRemoteBackend(name, base string, client *http.Client) *RemoteBackend {
	if client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = remoteIdlePerHost
		client = &http.Client{Timeout: 5 * time.Second, Transport: tr}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &RemoteBackend{
		name:   name,
		base:   strings.TrimRight(base, "/"),
		client: client,
		Poll:   25 * time.Millisecond,
		ctx:    ctx,
		cancel: cancel,
	}
}

// Name implements Backend.
func (b *RemoteBackend) Name() string { return b.name }

// Close cancels every outstanding completion wait (and any request still
// in flight) and returns once every follower has exited; no done callback
// fires after it. Call it after the last Submit.
func (b *RemoteBackend) Close() {
	b.cancel()
	b.followers.Wait()
}

// get fetches url and decodes its JSON body into v, reading the body to
// the end so the connection returns to the pool.
func (b *RemoteBackend) get(url string, v any) error {
	req, err := http.NewRequestWithContext(b.ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	defer io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("gateway: %s: GET %s: status %d", b.name, req.URL.Path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// Probe implements Backend via GET /v1/headroom.
func (b *RemoteBackend) Probe(now sim.Time) (Headroom, error) {
	var hs serve.HeadroomStatus
	if err := b.get(b.base+"/v1/headroom", &hs); err != nil {
		return Headroom{}, err
	}
	return Headroom{
		Drain:      sim.Time(hs.DrainUs) * sim.Microsecond,
		Unfinished: hs.Unfinished,
		Capacity:   hs.Devices,
		Draining:   hs.Draining,
	}, nil
}

// remoteSubmit is the POST /v1/jobs body sent to the node. The gateway has
// already sampled the kernel chain for its routing estimate, but laxd
// samples its own — the node's admission decision is what matters, and the
// benchmark name pins the workload distribution.
type remoteSubmit struct {
	Benchmark  string `json:"benchmark"`
	DeadlineUs int64  `json:"deadline_us,omitempty"`
}

// Submit implements Backend: POST the job, interpret the verdict, and
// follow the job record to its terminal state in the background.
func (b *RemoteBackend) Submit(now sim.Time, job *Job, done func(Outcome)) (Verdict, error) {
	body, err := json.Marshal(remoteSubmit{
		Benchmark:  job.Benchmark,
		DeadlineUs: usOf(job.Deadline),
	})
	if err != nil {
		return Verdict{}, err
	}
	req, err := http.NewRequestWithContext(b.ctx, http.MethodPost, b.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return Verdict{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if job.TraceID != "" {
		// Propagate the gateway-minted trace ID so the node's spans stitch
		// with ours; the parent span ID is derived from the gateway job ID.
		req.Header.Set("traceparent", obs.FormatTraceparent(job.TraceID, obs.SpanIDFrom(0x6c617867, uint64(job.ID))))
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return Verdict{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return Verdict{}, err
	}
	var st serve.JobStatus
	switch resp.StatusCode {
	case http.StatusAccepted:
		if err := json.Unmarshal(raw, &st); err != nil {
			return Verdict{}, err
		}
		b.followers.Add(1)
		go b.follow(st.ID, done)
		return Verdict{Accepted: true, RemoteID: st.ID}, nil
	case http.StatusTooManyRequests:
		if err := json.Unmarshal(raw, &st); err != nil {
			return Verdict{}, err
		}
		return Verdict{Accepted: false, Retry: sim.Time(st.RetryAfterUs) * sim.Microsecond}, nil
	default:
		// 503 (drain, backpressure) and everything else: the node did not
		// take the job; the gateway may re-dispatch it.
		return Verdict{}, fmt.Errorf("gateway: %s: submit status %d: %s", b.name, resp.StatusCode, raw)
	}
}

// JobTrace implements TraceSource via GET /v1/jobs/{id}/trace on the node.
func (b *RemoteBackend) JobTrace(remoteID int64, traceID string) (obs.WireTrace, bool) {
	var doc obs.TraceDoc
	if err := b.get(fmt.Sprintf("%s/v1/jobs/%d/trace", b.base, remoteID), &doc); err != nil {
		return obs.WireTrace{}, false
	}
	if traceID != "" && doc.Trace.TraceID != traceID {
		return obs.WireTrace{}, false
	}
	return doc.Trace, true
}

// follow waits on one accepted job until it turns terminal, then fires
// done. laxd holds each GET ?wait=1 until the job is terminal or its hold
// cap expires, so a non-terminal answer re-issues the wait at once; a
// transport error backs off Poll first. If the node dies, every wait errors
// and done never fires — exactly the lost completion the gateway's
// failover recovers. Close ends the loop.
func (b *RemoteBackend) follow(remoteID int64, done func(Outcome)) {
	defer b.followers.Done()
	url := fmt.Sprintf("%s/v1/jobs/%d?wait=1", b.base, remoteID)
	for b.ctx.Err() == nil {
		var st serve.JobStatus
		if err := b.get(url, &st); err != nil {
			backoff := time.NewTimer(b.Poll)
			select {
			case <-backoff.C:
			case <-b.ctx.Done():
				backoff.Stop()
			}
			continue
		}
		switch st.State {
		case "done":
			done(Outcome{
				Terminal: verify.FleetDone,
				Met:      st.MetDeadline,
				FellBack: st.FellBack,
				Latency:  sim.Time(st.LatencyUs) * sim.Microsecond,
				Cause:    st.MissCause,
			})
			return
		case "cancelled", "rejected", "dropped":
			// Rejected and dropped should not happen for an accepted job;
			// treat them as cancelled so the journal still closes the entry.
			done(Outcome{Terminal: verify.FleetCancelled, Cause: st.MissCause})
			return
		}
	}
}
