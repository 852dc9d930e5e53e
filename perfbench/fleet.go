package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"laxgpu/internal/gateway"
	"laxgpu/internal/obs"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/verify"
)

// fleetSpec fixes one fleet workload. Rates are offered arrivals per wall
// second; the clock runs at speed 1.
type fleetSpec struct {
	bench      string
	deadlineUs int64
	remote     bool // laxd nodes behind RemoteBackend, else InprocBackend
	rate       float64
}

var (
	remoteSTEM = fleetSpec{bench: "STEM", deadlineUs: 300, remote: true, rate: 1000}
	inprocLSTM = fleetSpec{bench: "LSTM", deadlineUs: 7000, remote: false, rate: 600}
)

// readStream is the scraper-like traffic beside every open phase. Its
// intervals are the repository's own: a client following one finished job
// reads it as often as RemoteBackend polls a laxd job (its default Poll,
// 25 ms), and scripts/gateway_smoke.sh and scripts/autoscale_smoke.sh poll
// /v1/fleet and /metrics every 0.2 s.
var readStream = ReadStream{JobEvery: 25 * time.Millisecond, ScrapeEvery: 200 * time.Millisecond}

const (
	fleetNodes   = 2
	warmJobs     = 1000                  // back-to-back submissions of each set-up
	openShare    = 0.75                  // share of the window in the open phase; the rest saturates
	probeEvery   = 50 * time.Millisecond // laxgw's default -probe-interval
	drainTimeout = 10 * time.Second      // longest wait for accepted jobs to finish
)

// fleet is one system under test: a gateway over two nodes, every HTTP
// surface on its own loopback listener, built from the constructors the
// laxd and laxgw daemons use.
type fleet struct {
	rec   *Recorder // nil when untraced
	tap   *tap      // nil when untraced
	clock *serve.WallClock
	gw    *gateway.Gateway

	laxd    []*serve.Server
	remote  []*gateway.RemoteBackend
	inproc  []*gateway.InprocBackend
	servers []*http.Server
	serving sync.WaitGroup

	stopProber func()
	base       string
	clients    []*http.Client
	body       []byte

	// lastDone is a finished job the read stream fetches.
	lastDone atomic.Int64
	// stop releases completion watchers at teardown.
	stop     chan struct{}
	stopOnce sync.Once
}

func startFleet(spec fleetSpec, seed int64, rec *Recorder) (*fleet, error) {
	f := &fleet{rec: rec, clock: serve.NewWallClock(1), stop: make(chan struct{})}
	if rec != nil {
		f.tap = newTap(rec)
	}
	reg := obs.NewRegistry()
	var backends []gateway.Backend
	for i := 0; i < fleetNodes; i++ {
		name := fmt.Sprintf("node%d", i)
		var be gateway.Backend
		layer := "node"
		if spec.remote {
			srv, err := serve.New(serve.Options{Scheduler: "LAX", Name: name, Seed: seed + int64(i)})
			if err != nil {
				f.close()
				return nil, err
			}
			srv.Start()
			f.laxd = append(f.laxd, srv)
			h := srv.Handler()
			var conns *atomic.Int64
			if f.tap != nil {
				h, conns = f.tap.laxd(h), &f.tap.conns
			}
			url, err := f.listen(h, conns)
			if err != nil {
				f.close()
				return nil, err
			}
			rb := gateway.NewRemoteBackend(name, url, nil) // laxgw's default client
			f.remote = append(f.remote, rb)
			be, layer = rb, "hop"
		} else {
			ib, err := gateway.NewInprocBackend(gateway.InprocConfig{
				Name:        name,
				Node:        serve.NodeConfig{Scheduler: "LAX", Seed: seed + int64(i)},
				Clock:       f.clock,
				AcceptQueue: 64,
				Registry:    reg,
			})
			if err != nil {
				f.close()
				return nil, err
			}
			f.inproc = append(f.inproc, ib)
			be = ib
		}
		if f.tap != nil {
			be = &tracedBackend{Backend: be, t: f.tap, layer: layer}
		}
		backends = append(backends, be)
	}
	gw, err := gateway.New(gateway.Options{
		Backends:      backends,
		Clock:         f.clock,
		Registry:      reg,
		FailThreshold: 3,
		ProbeBackoff:  sim.FromDuration(100 * time.Millisecond),
		Seed:          seed,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.gw = gw
	h := gw.Handler()
	if f.tap != nil {
		h = f.tap.gateway(h)
	}
	if f.base, err = f.listen(h, nil); err != nil {
		f.close()
		return nil, err
	}
	gw.TickProbes(f.clock.Now())
	f.stopProber = gw.StartProber(probeEvery)
	for w := 0; w < runtime.NumCPU(); w++ {
		f.clients = append(f.clients, &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		})
	}
	f.body, _ = json.Marshal(map[string]any{"benchmark": spec.bench, "deadline_us": spec.deadlineUs})
	return f, nil
}

// listen serves h on a fresh loopback port and returns its base URL. A
// non-nil conns counts the TCP connections the listener accepts.
func (f *fleet) listen(h http.Handler, conns *atomic.Int64) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	if conns != nil {
		hs.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				conns.Add(1)
			}
		}
	}
	f.servers = append(f.servers, hs)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = hs.Serve(ln) // returns ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// close drains and stops everything startFleet started. The benchmark
// drains in-process nodes itself: Gateway.Shutdown only reaches nodes it
// can unwrap, and a traced run decorates them.
func (f *fleet) close() {
	if f.stopProber != nil {
		f.stopProber()
	}
	f.release()
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if f.gw != nil {
		_ = f.gw.Shutdown(ctx, time.Second) // nodes are idle by now
	}
	for _, ib := range f.inproc {
		ib.Shutdown(time.Second)
	}
	for _, rb := range f.remote {
		rb.Close()
	}
	for _, srv := range f.laxd {
		_ = srv.Shutdown(ctx)
	}
	for _, hs := range f.servers {
		_ = hs.Close()
	}
	f.serving.Wait()
	for _, c := range f.clients {
		c.CloseIdleConnections()
	}
}

// reply is the part of a gateway response the benchmark reads.
type reply struct {
	ID     int64  `json:"id"`
	Reason string `json:"reason"`
}

// verdict classifies one submission.
type verdict int

const (
	accepted verdict = iota
	refused          // admission, shed, client cap or no healthy node
	failed           // transport error or any other status
)

// submit POSTs one arrival on worker w's connection.
func (f *fleet) submit(w int) (verdict, int64) {
	req, _ := http.NewRequest(http.MethodPost, f.base+"/v1/jobs", bytes.NewReader(f.body))
	req.Header.Set("Content-Type", "application/json")
	span, start := f.rec.Begin()
	if span != 0 {
		req.Header.Set(spanHeader, fmt.Sprint(span))
	}
	resp, err := f.clients[w].Do(req)
	if err != nil {
		return failed, -1
	}
	var rp reply
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	f.rec.Finish(span, 0, "client.submit", -1, start)
	if err != nil || json.Unmarshal(raw, &rp) != nil {
		return failed, -1
	}
	switch {
	case resp.StatusCode == http.StatusAccepted:
		return accepted, rp.ID
	case resp.StatusCode == http.StatusTooManyRequests,
		resp.StatusCode == http.StatusServiceUnavailable && rp.Reason == serve.ReasonUnhealthy:
		return refused, -1
	}
	return failed, -1
}

// read GETs path on worker w's connection and reports success.
func (f *fleet) read(w int, path string) bool {
	req, _ := http.NewRequest(http.MethodGet, f.base+path, nil)
	span, start := f.rec.Begin()
	if span != 0 {
		req.Header.Set(spanHeader, fmt.Sprint(span))
	}
	resp, err := f.clients[w].Do(req)
	if err != nil {
		return false
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	f.rec.Finish(span, 0, "client.read", -1, start)
	return err == nil && resp.StatusCode == http.StatusOK
}

// do executes one scheduled op. For an accepted arrival it starts a
// watcher that stamps when Gateway.Done closes, measured from due.
func (f *fleet) do(w int, op Op, due time.Time, a *arrival, watchers *sync.WaitGroup) {
	switch op.Kind {
	case OpSubmit:
		a.verdict, a.id = f.submit(w)
		if a.verdict != accepted {
			return
		}
		ch := f.gw.Done(a.id)
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			select {
			case <-ch:
				a.done = time.Since(due)
				f.lastDone.Store(a.id)
			case <-f.stop:
			}
		}()
	case OpReadJob:
		a.readOK = f.read(w, fmt.Sprintf("/v1/jobs/%d", f.lastDone.Load()))
	case OpReadTrace:
		a.readOK = f.read(w, fmt.Sprintf("/v1/jobs/%d/trace", f.lastDone.Load()))
	case OpReadFleet:
		a.readOK = f.read(w, "/v1/fleet")
	case OpReadMetrics:
		a.readOK = f.read(w, "/metrics")
	}
}

// arrival is the outcome of one scheduled op.
type arrival struct {
	verdict verdict
	id      int64
	done    time.Duration // due → Gateway.Done closed; 0 if it never did
	readOK  bool
}

// waitAll waits for wg until the drain timeout; on expiry it releases
// every watcher and reports false.
func (f *fleet) waitAll(wg *sync.WaitGroup) bool {
	ch := make(chan struct{})
	go func() { wg.Wait(); close(ch) }()
	select {
	case <-ch:
		return true
	case <-time.After(drainTimeout):
		f.release()
		<-ch
		return false
	}
}

// release stops every completion watcher.
func (f *fleet) release() { f.stopOnce.Do(func() { close(f.stop) }) }

// warm runs the set-up traffic: warmJobs back-to-back submissions, a wait
// for all of them to finish, then one read of each kind. It lets
// connections, the nodes' profiling tables and the router's headroom
// settle before anything is timed.
func (f *fleet) warm() error {
	submits := make([]Op, warmJobs)
	arr := make([]arrival, len(submits))
	var watchers sync.WaitGroup
	RunOpen(submits, len(f.clients), func(w, i int, due time.Time) {
		f.do(w, submits[i], due, &arr[i], &watchers)
	})
	if !f.waitAll(&watchers) {
		return fmt.Errorf("warm-up jobs did not finish within %v", drainTimeout)
	}
	for i, a := range arr {
		if a.verdict == failed {
			return fmt.Errorf("warm-up submission %d failed", i)
		}
	}
	reads := []Op{{Kind: OpReadJob}, {Kind: OpReadTrace}, {Kind: OpReadFleet}, {Kind: OpReadMetrics}}
	for _, op := range reads {
		var a arrival
		f.do(0, op, time.Now(), &a, &watchers)
		if !a.readOK {
			return fmt.Errorf("warm-up read (kind %d) failed", op.Kind)
		}
	}
	return nil
}

// tally is the client's own count of submission verdicts.
type tally struct {
	submits, accepted, refused, failed int64
	ids                                []int64 // accepted job IDs
}

func (t *tally) add(v verdict, id int64) {
	t.submits++
	switch v {
	case accepted:
		t.accepted++
		t.ids = append(t.ids, id)
	case refused:
		t.refused++
	default:
		t.failed++
	}
}

// laxdCounter sums one laxd registry counter over the fleet's nodes.
func (f *fleet) laxdCounter(name string) int64 {
	n := int64(0)
	for _, srv := range f.laxd {
		n += srv.Registry().Counter(name, "").Value()
	}
	return n
}

// runFleet runs one fleet workload: set-up (repeated SetupReps times,
// warm-up included), an open-loop phase at the spec's offered rate with the
// read stream beside it, and a saturation phase of closed-loop clients.
func runFleet(spec fleetSpec, seed int64, window time.Duration, rec *Recorder, out *Report) error {
	var f *fleet
	for k := 0; k < out.SetupReps; k++ {
		if f != nil {
			f.close()
		}
		t := out.SetupStart(k)
		var err error
		if f, err = startFleet(spec, seed, rec); err != nil {
			return err
		}
		if err := f.warm(); err != nil {
			f.close()
			return err
		}
		out.Setup(time.Since(t))
	}
	defer f.close()
	if f.tap != nil {
		f.tap.reset()
	}
	before := f.gw.Stats()
	limited0, rejected0, overflow0, admitted0 := f.laxdCounter("laxd_client_limited_total"),
		f.laxdCounter("laxd_jobs_rejected_total"), f.laxdCounter("laxd_accept_queue_overflow_total"),
		f.laxdCounter("laxd_jobs_admitted_total")

	// Each timed phase starts from a collected heap, so the collector's
	// cycles fall at the same points of every run.
	debug.FreeOSMemory()

	// Open phase.
	openDur := time.Duration(float64(window) * openShare)
	ops := Schedule(seed, spec.rate, openDur, readStream)
	arr := make([]arrival, len(ops))
	var watchers sync.WaitGroup
	timings := RunOpen(ops, len(f.clients), func(w, i int, due time.Time) {
		f.do(w, ops[i], due, &arr[i], &watchers)
	})
	if !f.waitAll(&watchers) {
		out.Fail("open-phase jobs still running %v after the last arrival", drainTimeout)
	}
	var open tally
	var admit, done, reads, late Sample
	var readFailed int64
	for i, op := range ops {
		late.AddDur(timings[i].Late)
		a := arr[i]
		if op.Kind != OpSubmit {
			if !a.readOK {
				readFailed++
				continue
			}
			reads.AddDur(timings[i].Latency)
			continue
		}
		open.add(a.verdict, a.id)
		if a.verdict != failed {
			admit.AddDur(timings[i].Latency)
		}
		if a.verdict == accepted && a.done > 0 {
			done.AddDur(a.done)
		}
	}
	out.Attempt(int64(len(ops)), open.failed+readFailed)
	openMet := f.settle(&open, out)

	// Saturation phase: closed-loop clients back to back, no ?wait.
	debug.FreeOSMemory()
	per := make([]tally, len(f.clients))
	satDur := window - openDur
	RunClosed(len(f.clients), satDur, func(w int) {
		per[w].add(f.submit(w))
	})
	var sat tally
	for _, t := range per {
		sat.submits += t.submits
		sat.accepted += t.accepted
		sat.refused += t.refused
		sat.failed += t.failed
		sat.ids = append(sat.ids, t.ids...)
	}
	deadline := time.After(drainTimeout)
	for _, id := range sat.ids {
		select {
		case <-f.gw.Done(id):
		case <-deadline:
		}
	}
	out.Attempt(sat.submits, sat.failed)
	satMet := f.settle(&sat, out)

	// Output checks: the client's tally against the gateway's counters,
	// the journal against verify.CheckFleet, and (remote) the nodes'
	// admissions against the gateway's.
	after := f.gw.Stats()
	subs := open.submits + sat.submits - open.failed - sat.failed
	acc := open.accepted + sat.accepted
	ref := open.refused + sat.refused
	if got := after.Submitted - before.Submitted; got != subs {
		out.Fail("gateway counted %d submissions, client %d", got, subs)
	}
	if got := after.Accepted - before.Accepted; got != acc {
		out.Fail("gateway counted %d accepted, client %d", got, acc)
	}
	gwRef := (after.Rejected - before.Rejected) + (after.Shed - before.Shed) + (after.Unhealthy - before.Unhealthy)
	if gwRef != ref {
		out.Fail("gateway counted %d refusals, client %d", gwRef, ref)
	}
	jobs := f.gw.FleetJobs()
	for _, v := range verify.CheckFleet(f.clock.Now(), jobs) {
		out.Fail("verify.CheckFleet: %v", v)
	}
	if spec.remote {
		if n := f.laxdCounter("laxd_jobs_admitted_total"); n != after.Accepted {
			out.Fail("laxd nodes admitted %d jobs, gateway accepted %d", n, after.Accepted)
		}
	}

	openSec := openDur.Seconds()
	out.Set("refused_frac", ratio(float64(open.refused), float64(open.submits)), "frac", int(open.submits))
	out.Set("offered_jobs_per_s", float64(open.submits)/openSec, "1/s", int(open.submits))
	out.Set("admit_p50_ms", admit.Median(), "ms", admit.N())
	out.Set("admit_p99_ms", admit.Quantile(0.99), "ms", admit.N())
	out.Set("done_p50_ms", done.Median(), "ms", done.N())
	out.Set("done_p99_ms", done.Quantile(0.99), "ms", done.N())
	out.Set("goodput_jobs_per_s", float64(openMet)/openSec, "1/s", int(open.submits))
	out.Set("sat_jobs_per_s", float64(satMet)/satDur.Seconds(), "1/s", int(sat.submits))
	out.Set("read_p50_ms", reads.Median(), "ms", reads.N())
	out.Set("read_p99_ms", reads.Quantile(0.99), "ms", reads.N())
	out.Primary(admit.Median())

	out.Set("loadgen.late_p99_ms", late.Quantile(0.99), "ms", late.N())
	out.Set("gateway.journal_entries", float64(len(jobs)), "count", 1)
	out.Set("gateway.rejected", float64(after.Rejected-before.Rejected), "count", 1)
	out.Set("gateway.shed", float64(after.Shed-before.Shed), "count", 1)
	out.Set("gateway.unhealthy", float64(after.Unhealthy-before.Unhealthy), "count", 1)
	if spec.remote {
		out.Set("serve.limited", float64(f.laxdCounter("laxd_client_limited_total")-limited0), "count", 1)
		out.Set("serve.rejected", float64(f.laxdCounter("laxd_jobs_rejected_total")-rejected0), "count", 1)
		out.Set("serve.overflow", float64(f.laxdCounter("laxd_accept_queue_overflow_total")-overflow0), "count", 1)
	}
	if f.tap != nil {
		f.layerSpans(out, f.laxdCounter("laxd_jobs_admitted_total")-admitted0)
	}
	return nil
}

// settle reads every accepted job of t back from the gateway: each must be
// terminal, and met + missed + refused must account for every submission
// that got an answer. It returns how many jobs met their deadline.
func (f *fleet) settle(t *tally, out *Report) int64 {
	var met, missed int64
	for _, id := range t.ids {
		st, ok := f.gw.Status(id)
		switch {
		case !ok || st.State == "admitted":
			out.Fail("job %d never reached a terminal state", id)
		case st.MetDeadline:
			met++
		default:
			missed++
		}
	}
	if met+missed+t.refused != t.submits-t.failed {
		out.Fail("met %d + missed %d + refused %d != answered %d", met, missed, t.refused, t.submits-t.failed)
	}
	return met
}

// layerSpans turns the traced pass's spans into per-layer metrics. The
// gateway's self time covers accepted submissions: only their responses
// name the job that links the handler to its Backend.Submit.
func (f *fleet) layerSpans(out *Report, laxdAdmitted int64) {
	f.rec.LinkByJob("gateway.submit", "hop.submit", "node.submit")
	spans := f.rec.Spans()
	self := SelfTimes(spans)
	by := map[string]*Sample{}
	selfBy := map[string]*Sample{}
	for _, s := range spans {
		if s.Name == "gateway.submit" && s.Job < 0 {
			continue
		}
		if by[s.Name] == nil {
			by[s.Name], selfBy[s.Name] = &Sample{}, &Sample{}
		}
		by[s.Name].Add(float64(s.Dur()) / 1e3)
		selfBy[s.Name].Add(float64(self[s.ID]) / 1e3)
	}
	get := func(m map[string]*Sample, name string) *Sample {
		if s := m[name]; s != nil {
			return s
		}
		return &Sample{}
	}
	us := func(metric string, s *Sample, q float64) {
		out.Set(metric, s.Quantile(q), "us", s.N())
	}
	us("gateway.self_us_p50", get(selfBy, "gateway.submit"), 0.5)
	us("gateway.self_us_p99", get(selfBy, "gateway.submit"), 0.99)
	us("gateway.read_us_p99", get(by, "gateway.read"), 0.99)
	us("gateway.probe_us_p50", get(by, "gateway.probe"), 0.5)
	us("front.net_us_p50", get(selfBy, "client.submit"), 0.5)
	us("node.submit_us_p50", get(by, "node.submit"), 0.5)
	us("node.submit_us_p99", get(by, "node.submit"), 0.99)
	us("hop.submit_us_p50", get(selfBy, "hop.submit"), 0.5)
	us("hop.submit_us_p99", get(selfBy, "hop.submit"), 0.99)
	us("hop.trace_fetch_us_p99", get(by, "hop.trace_fetch"), 0.99)
	us("serve.submit_us_p50", get(by, "serve.submit"), 0.5)
	us("serve.status_us_p50", get(by, "serve.status"), 0.5)
	polls := float64(f.tap.polls.Load())
	out.Set("hop.polls_per_job", ratio(polls, float64(laxdAdmitted)), "count", int(laxdAdmitted))
	out.Set("hop.poll_useful_frac", ratio(float64(f.tap.outcomes.Load()), polls), "frac", int(polls))
	out.Set("hop.conns_per_job", ratio(float64(f.tap.conns.Load()), float64(laxdAdmitted)), "count", int(laxdAdmitted))
}
