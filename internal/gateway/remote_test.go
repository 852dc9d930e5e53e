package gateway

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/verify"
)

// startLaxd serves a laxd node over loopback. held counts the GET ?wait=1
// requests its handler is still holding.
func startLaxd(t *testing.T, speed float64) (url string, held *atomic.Int64) {
	t.Helper()
	srv, err := serve.New(serve.Options{Speed: speed, DrainGrace: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	held = new(atomic.Int64)
	inner := srv.Handler()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("wait") != "" {
			held.Add(1)
			defer held.Add(-1)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("laxd shutdown: %v", err)
		}
		hs.Close()
	})
	return hs.URL, held
}

// remoteJob is a STEM job with a deadline no clock speed can miss. The
// deadlines double with id so Algorithm 1 keeps admitting on a cold
// profiling table, where a queued job's hold-time estimate is its own
// deadline: the jobs ahead of job id sum to less than its deadline.
func remoteJob(id int64) *Job {
	return &Job{ID: id, Benchmark: "STEM", Deadline: 1000 * sim.Second << id}
}

// waitFor polls cond until it holds or the timeout expires.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRemoteBackendDeliversWithoutPolling proves completions are pushed: with
// the transport-error backoff at an hour, only the held wait can deliver.
func TestRemoteBackendDeliversWithoutPolling(t *testing.T) {
	url, _ := startLaxd(t, 1)
	b := NewRemoteBackend("node0", url, nil)
	b.Poll = time.Hour
	defer b.Close()

	outs := make(chan Outcome, 3)
	for i := int64(0); i < 3; i++ {
		v, err := b.Submit(0, remoteJob(i), func(o Outcome) { outs <- o })
		if err != nil || !v.Accepted {
			t.Fatalf("submit %d: %+v, %v", i, v, err)
		}
	}
	for i := 0; i < 3; i++ {
		select {
		case o := <-outs:
			if o.Terminal != verify.FleetDone || !o.Met || o.Latency <= 0 {
				t.Errorf("outcome = %+v, want a met completion", o)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of 3 completions delivered", i)
		}
	}
}

func TestRemoteBackendCloseReleasesWaiters(t *testing.T) {
	url, held := startLaxd(t, 1e-6) // jobs never finish during the test
	b := NewRemoteBackend("node0", url, nil)
	b.Poll = time.Hour

	const jobs = 4
	var fired atomic.Int64
	for i := int64(0); i < jobs; i++ {
		v, err := b.Submit(0, remoteJob(i), func(Outcome) { fired.Add(1) })
		if err != nil || !v.Accepted {
			t.Fatalf("submit %d: %+v, %v", i, v, err)
		}
	}
	waitFor(t, 5*time.Second, "every job's wait to reach laxd", func() bool { return held.Load() == jobs })
	b.Close()
	waitFor(t, time.Second, "laxd to see every wait released", func() bool { return held.Load() == 0 })
	if n := fired.Load(); n != 0 {
		t.Errorf("%d done callbacks fired for jobs that never finished", n)
	}
}
