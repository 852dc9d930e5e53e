// Command laxbench is the repository's benchmark. One run executes one
// workload for a fixed wall window, checks the program's outputs, and
// prints every metric by name with its unit and sample count; the last
// line of standard output is the JSON result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones. With -trace 1 the run
// makes an untraced pass and a traced pass of half the window each, reports
// the per-layer metrics of the traced pass and the tracing overhead, and
// writes the traced pass's spans to -out.
//
// Workloads: sim-table5 (the paper's Table 5 grid), fleet-remote-stem
// (laxgw → 2 laxd over loopback HTTP) and fleet-inproc-lstm (laxgw over 2
// in-process nodes). README.md in this directory explains each metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// processStart is taken during package initialisation, as close to process
// start as Go code runs.
var processStart = time.Now()

// metricDef is one metric of BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics every workload reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"admit_p50_ms", "ms"},
	{"done_p50_ms", "ms"},
	{"goodput_jobs_per_s", "1/s"},
	{"sat_jobs_per_s", "1/s"},
	{"read_p50_ms", "ms"},
}

// perLayer lists the per-layer metrics of a traced run. A workload that
// never calls into a layer reports that layer's metrics as 0.
var perLayer = []metricDef{
	{"harness.cell_ms_p50", "ms"},
	{"harness.cell_ms_max", "ms"},
	{"harness.pool_idle_frac", "frac"},
	{"workload.jobset_ms", "ms"},
	{"cp.ns_per_job", "ns"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"gpu.wgs", "count"},
	{"gpu.ns_per_wg", "ns"},
	{"sched.admit_accept_frac", "frac"},
	{"node.submit_us_p50", "us"},
	{"node.submit_us_p99", "us"},
	{"gateway.self_us_p50", "us"},
	{"gateway.self_us_p99", "us"},
	{"gateway.read_us_p99", "us"},
	{"gateway.journal_entries", "count"},
	{"gateway.probe_us_p50", "us"},
	{"gateway.rejected", "count"},
	{"gateway.shed", "count"},
	{"gateway.unhealthy", "count"},
	{"hop.submit_us_p50", "us"},
	{"hop.submit_us_p99", "us"},
	{"hop.polls_per_job", "count"},
	{"hop.poll_useful_frac", "frac"},
	{"hop.conns_per_job", "count"},
	{"hop.trace_fetch_us_p99", "us"},
	{"serve.submit_us_p50", "us"},
	{"serve.status_us_p50", "us"},
	{"serve.limited", "count"},
	{"serve.rejected", "count"},
	{"serve.overflow", "count"},
	{"front.net_us_p50", "us"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_frac", "frac"},
}

// setupReps is how many times an untraced run sets its workload up; setup_s
// is the median. The first set-up is timed from process start.
const setupReps = 5

// value is one reported number with its unit and sample count.
type value struct {
	v    float64
	unit string
	n    int
}

// Report collects one pass's outcome.
type Report struct {
	// SetupReps is how often the workload sets itself up in this pass.
	SetupReps int

	setups            Sample
	attempted, failed int64
	vals              map[string]value
	order             []string
	primary           float64
}

func newReport(setupReps int) *Report {
	return &Report{SetupReps: setupReps, vals: make(map[string]value)}
}

// SetupStart is the instant set-up number k is timed from.
func (r *Report) SetupStart(k int) time.Time {
	if k == 0 {
		return processStart
	}
	return time.Now()
}

// Setup records one set-up's duration.
func (r *Report) Setup(d time.Duration) { r.setups.Add(d.Seconds()) }

// Attempt counts operations attempted and how many of them failed.
func (r *Report) Attempt(n, failed int64) {
	r.attempted += n
	r.failed += failed
}

// Fail counts one failed check (attempted once, failed once).
func (r *Report) Fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
	r.Attempt(1, 1)
}

// Set records one figure measured over n samples. Every figure is printed;
// the result line carries those BENCHMARK.json names.
func (r *Report) Set(name string, v float64, unit string, n int) {
	if _, ok := r.vals[name]; !ok {
		r.order = append(r.order, name)
	}
	r.vals[name] = value{v, unit, n}
}

// Primary records the pass's headline cost (sweep seconds, admit p50), the
// base of the tracing overhead.
func (r *Report) Primary(v float64) { r.primary = v }

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// lines prints one line per figure: name, value, unit, sample count.
func (r *Report) lines(prefix string) {
	for _, name := range r.order {
		v := r.vals[name]
		fmt.Printf("%s%-26s %14.6g %-6s (n=%d)\n", prefix, name, v.v, v.unit, v.n)
	}
}

// print writes the figures, then the JSON result over defs.
func (r *Report) print(defs []metricDef) error {
	r.lines("")
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricOut),
	}
	for _, d := range defs {
		v, ok := r.vals[d.name]
		if !ok && isEndToEnd(d.name) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricOut{Value: v.v, Unit: d.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func isEndToEnd(name string) bool {
	for _, d := range endToEnd {
		if d.name == name {
			return true
		}
	}
	return false
}

// runner executes one workload pass.
type runner func(seed int64, window time.Duration, rec *Recorder, out *Report) error

func workloads() map[string]runner {
	return map[string]runner{
		"sim-table5": runTable5,
		"fleet-remote-stem": func(s int64, w time.Duration, rec *Recorder, out *Report) error {
			return runFleet(remoteSTEM, s, w, rec, out)
		},
		"fleet-inproc-lstm": func(s int64, w time.Duration, rec *Recorder, out *Report) error {
			return runFleet(inprocLSTM, s, w, rec, out)
		},
	}
}

func main() {
	var (
		wl       = flag.String("workload", "", "sim-table5 | fleet-remote-stem | fleet-inproc-lstm")
		seed     = flag.Int64("seed", 1, "seed of the workload's inputs")
		seconds  = flag.Int("seconds", 20, "wall seconds one run measures")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans written to -out")
		outDir   = flag.String("out", ".bench_build", "directory for span dumps")
		writeRef = flag.String("write-reference", "", "regenerate the Table 5 reference into this file and exit")
	)
	flag.Parse()
	if err := run(*wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *outDir, *writeRef); err != nil {
		fmt.Fprintln(os.Stderr, "laxbench:", err)
		os.Exit(1)
	}
}

func run(wl string, seed int64, window time.Duration, traced bool, outDir, writeRef string) error {
	if writeRef != "" {
		return writeReference(writeRef)
	}
	fn, ok := workloads()[wl]
	if !ok {
		return fmt.Errorf("unknown -workload %q", wl)
	}
	if !traced {
		rep := newReport(setupReps)
		if err := fn(seed, window, nil, rep); err != nil {
			return err
		}
		rep.Set("setup_s", rep.setups.Median(), "s", rep.setups.N())
		rep.Set("peak_rss_mb", peakRSSMB(), "MB", 1)
		rep.Set("failed_frac", ratio(float64(rep.failed), float64(rep.attempted)), "frac", int(rep.attempted))
		return rep.print(endToEnd)
	}

	// Traced run: an untraced pass, then a traced pass on a fresh set-up,
	// both under the same output checks.
	plain := newReport(1)
	if err := fn(seed, window/2, nil, plain); err != nil {
		return err
	}
	rec := NewRecorder()
	rep := newReport(1)
	if err := fn(seed, window/2, rec, rep); err != nil {
		return err
	}
	plain.lines("untraced ")
	rep.Attempt(plain.attempted, plain.failed)
	rep.Set("trace.overhead_frac", ratio(rep.primary, plain.primary)-1, "frac", 2)
	rep.Set("failed_frac", ratio(float64(rep.failed), float64(rep.attempted)), "frac", int(rep.attempted))
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", wl, seed))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := rec.Write(path); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(rec.Spans()), path)
	return rep.print(perLayer)
}
