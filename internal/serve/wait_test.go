package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"laxgpu/internal/cp"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// getStatus issues GET url and decodes the job status it answers.
func getStatus(t *testing.T, ctx context.Context, url string) (int, JobStatus, error) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, JobStatus{}, err
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st, nil
}

// submitSlow posts one STEM job with a deadline no clock speed can miss.
func submitSlow(t *testing.T, url string) JobStatus {
	t.Helper()
	resp, st := postJob(t, url+"/v1/jobs", `{"benchmark":"STEM","deadline_us":1000000000}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}
	return st
}

func TestJobWaitReturnsTerminalStatus(t *testing.T) {
	// At 0.0002 simulated seconds per wall second a ~150 µs STEM job takes
	// most of a wall second, so a plain GET sees it running.
	srv, hs := startServer(t, Options{Speed: 0.0002, DrainGrace: 10 * time.Millisecond})
	st := submitSlow(t, hs.URL)
	url := fmt.Sprintf("%s/v1/jobs/%d", hs.URL, st.ID)
	if _, now, err := getStatus(t, context.Background(), url); err != nil || now.State != "admitted" {
		t.Fatalf("plain GET = %+v, %v; want the job still admitted", now, err)
	}
	code, got, err := getStatus(t, context.Background(), url+"?wait=1")
	if err != nil || code != http.StatusOK {
		t.Fatalf("GET ?wait=1: status %d, %v", code, err)
	}
	if got.State != "done" || !got.MetDeadline || got.LatencyUs <= 0 {
		t.Fatalf("GET ?wait=1 = %+v, want a finished job that met its deadline", got)
	}
	rec, _ := srv.records.lookup(st.ID)
	<-srv.records.doneCh(rec)
	if rec.run != nil {
		t.Error("a finished record still holds its JobRun")
	}
}

func TestJobWaitClientCancelReturnsPromptly(t *testing.T) {
	srv, err := New(Options{Speed: 1e-6, DrainGrace: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	var held atomic.Int64 // GET ?wait=1 handlers still running
	inner := srv.Handler()
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("wait") != "" {
			held.Add(1)
			defer held.Add(-1)
		}
		inner.ServeHTTP(w, r)
	})
	hs := httptest.NewServer(h)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		hs.Close()
	})
	st := submitSlow(t, hs.URL)

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	_, _, err = getStatus(t, ctx, fmt.Sprintf("%s/v1/jobs/%d?wait=1", hs.URL, st.ID))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait returned %v, want context.Canceled", err)
	}
	if el := time.Since(start); el >= statusHoldCap {
		t.Fatalf("cancelled wait took %v, not released before the hold cap", el)
	}
	deadline := time.Now().Add(time.Second)
	for held.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d wait handlers still running after the client left", held.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestJobWaitHoldCapAnswersRunningStatus(t *testing.T) {
	_, hs := startServer(t, Options{Speed: 1e-6, DrainGrace: 10 * time.Millisecond})
	st := submitSlow(t, hs.URL)
	start := time.Now()
	code, got, err := getStatus(t, context.Background(), fmt.Sprintf("%s/v1/jobs/%d?wait=1", hs.URL, st.ID))
	if err != nil || code != http.StatusOK {
		t.Fatalf("GET ?wait=1: status %d, %v", code, err)
	}
	if got.State != "admitted" {
		t.Fatalf("state = %q, want the job still admitted at the hold cap", got.State)
	}
	if el := time.Since(start); el < statusHoldCap {
		t.Fatalf("answered after %v, before the %v hold cap", el, statusHoldCap)
	}
}

func TestJobWaitUnknownID(t *testing.T) {
	_, hs := startServer(t, Options{Speed: 1})
	for _, q := range []string{"", "?wait=1"} {
		code, _, err := getStatus(t, context.Background(), hs.URL+"/v1/jobs/12345"+q)
		if err != nil || code != http.StatusNotFound {
			t.Errorf("GET unknown job%s: status %d, %v; want 404", q, code, err)
		}
	}
}

// TestNodeRetiresFinishedJobs pins the online memory bound: a node holds
// JobRuns only for its unfinished jobs, and its O(1) unfinished count
// agrees with the full scan at every step.
func TestNodeRetiresFinishedJobs(t *testing.T) {
	lib, cfg := testLibAndConfig()
	b, err := workload.FindBenchmark("STEM")
	if err != nil {
		t.Fatal(err)
	}
	// Twice the device's sustainable rate, so the run also rejects.
	const samples = 32
	rng := sim.NewRNG(1)
	var total sim.Time
	for i := 0; i < samples; i++ {
		total += b.Sample(lib, rng, i, 0).SerialTime(cfg.GPU)
	}
	set := b.GenerateCustom(lib, int(2*samples*float64(sim.Second)/float64(total)), 300, 5)

	node, err := NewNode(NodeConfig{Scheduler: "LAX"})
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		held := 0
		for _, jr := range node.System().Jobs() {
			if jr != nil {
				held++
			}
		}
		live := len(node.System().Unfinished())
		if held != live || node.UnfinishedCount() != live {
			t.Fatalf("%s: node holds %d JobRuns, counts %d unfinished, has %d", when, held, node.UnfinishedCount(), live)
		}
	}
	rejected := 0
	for i, j := range set.Jobs {
		node.AdvanceTo(j.Arrival)
		if node.Submit(j).State() == cp.JobRejected {
			rejected++
		}
		check(fmt.Sprintf("after submission %d", i))
	}
	if rejected == 0 {
		t.Fatal("expected rejections at 2x capacity")
	}
	node.System().Engine().Run()
	check("at quiescence")
	if n := node.UnfinishedCount(); n != 0 {
		t.Fatalf("%d jobs unfinished at quiescence", n)
	}
}
