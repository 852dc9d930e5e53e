package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"laxgpu/internal/harness"
	"laxgpu/internal/metrics"
	"laxgpu/internal/sched"
	"laxgpu/internal/workload"
)

// refSeeds are the runner seeds the Table 5 reference covers: the default
// seed laxsim uses, and a held-out one. Sweeps alternate between them.
var refSeeds = [2]int64{1, 7}

//go:embed reference/table5.json
var table5Ref []byte

// reference maps "seed/scheduler/benchmark" to a cell's full Summary, each
// field rendered exactly (floats in shortest round-trip form).
type reference map[string]map[string]string

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(table5Ref, &ref); err != nil {
		return nil, fmt.Errorf("table5 reference: %w", err)
	}
	return ref, nil
}

func cellKey(seed int64, c harness.Cell) string {
	return fmt.Sprintf("%d/%s/%s", seed, c.Sched, c.Bench)
}

// summaryFields renders every Summary field exactly. It holds simulated
// statistics only, so a change that fires fewer engine events for the same
// schedule still matches.
func summaryFields(s metrics.Summary) map[string]string {
	out := make(map[string]string)
	v := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		var txt string
		switch f.Kind() {
		case reflect.Float64:
			txt = strconv.FormatFloat(f.Float(), 'g', -1, 64)
		case reflect.Int, reflect.Int64:
			txt = strconv.FormatInt(f.Int(), 10)
		default:
			txt = f.String()
		}
		out[v.Type().Field(i).Name] = txt
	}
	return out
}

// diffSummary names the first field where got differs from want ("" when
// equal).
func diffSummary(got, want map[string]string) string {
	names := make([]string, 0, len(want))
	for k := range want {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if got[k] != want[k] {
			return fmt.Sprintf("%s = %s, reference %s", k, got[k], want[k])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d fields, reference %d", len(got), len(want))
	}
	return ""
}

// cellStat is what one grid cell reports, all wall times measured from
// the sweep's start (every cell is due then).
type cellStat struct {
	start, done time.Duration // cell picked up / summary read
	run, read   time.Duration // RunSystem and Summarize calls
	jobs        int
	rejected    int
	events      uint64
	wgs         uint64
	fields      map[string]string
}

// sweep is one full Table 5 grid on a fresh runner.
type sweep struct {
	seed   int64
	wall   time.Duration
	jobset time.Duration
	width  int
	cells  []harness.Cell
	stats  []cellStat
}

// runSweep runs the Table 5 grid once on a fresh harness.Runner (cold
// memo, as laxsim -experiment table5 finds it) at pool width runtime.NumCPU.
// With rec non-nil every layer call is also recorded as a span.
func runSweep(seed int64, rec *Recorder) (*sweep, error) {
	width := runtime.NumCPU()
	sw := &sweep{seed: seed, width: width, cells: harness.GridCells(sched.Table5Schedulers, workload.HighRate)}
	sw.stats = make([]cellStat, len(sw.cells))
	root, rootStart := rec.Begin()
	start := time.Now()
	r := harness.NewRunner()
	r.Seed = seed
	r.Workers = width
	for _, b := range workload.BenchmarkNames() {
		id, t0 := rec.Begin()
		if _, err := r.JobSet(b, workload.HighRate); err != nil {
			return nil, err
		}
		rec.Finish(id, root, "workload.jobset", -1, t0)
	}
	sw.jobset = time.Since(start)
	err := harness.NewPool(width).Do(context.Background(), len(sw.cells), func(ctx context.Context, i int) error {
		c := sw.cells[i]
		st := &sw.stats[i]
		st.start = time.Since(start)
		cell, t0 := rec.Begin()
		run, _ := rec.Begin()
		sys, _, err := r.RunSystemContext(ctx, c.Sched, c.Bench, c.Rate)
		if err != nil {
			return err
		}
		ran := time.Since(start)
		rec.Finish(run, cell, "cp.run", -1, t0)
		sum := metrics.Summarize(sys, c.Sched, c.Bench, c.Rate.String())
		st.done = time.Since(start)
		st.run, st.read = ran-st.start, st.done-ran
		rec.Finish(cell, root, "harness.cell", -1, t0)
		st.fields = summaryFields(sum)
		st.jobs, st.rejected = len(sys.Jobs()), sys.RejectedCount()
		st.events = sys.Engine().Fired()
		st.wgs = sys.Device().Counters().TotalCompleted()
		return nil
	})
	if err != nil {
		return nil, err
	}
	sw.wall = time.Since(start)
	rec.Finish(root, 0, "harness.sweep", -1, rootStart)
	return sw, nil
}

// check counts the sweep's cells whose Summary differs from the reference.
func (sw *sweep) check(ref reference) int {
	bad := 0
	for i, c := range sw.cells {
		want, ok := ref[cellKey(sw.seed, c)]
		if !ok {
			fmt.Fprintf(os.Stderr, "table5: %s: no reference cell\n", cellKey(sw.seed, c))
			bad++
			continue
		}
		if d := diffSummary(sw.stats[i].fields, want); d != "" {
			fmt.Fprintf(os.Stderr, "table5: %s: %s\n", cellKey(sw.seed, c), d)
			bad++
		}
	}
	return bad
}

// writeReference regenerates the committed reference from the program as
// it is: run it only when a change is meant to alter simulated results.
func writeReference(path string) error {
	ref := reference{}
	for _, seed := range refSeeds {
		sw, err := runSweep(seed, nil)
		if err != nil {
			return err
		}
		for i, c := range sw.cells {
			ref[cellKey(seed, c)] = sw.stats[i].fields
		}
	}
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// table5Setup is the workload's set-up: parse the reference and warm the
// simulator and the pool with the grid's EDF and LAX rows (about 0.2 s) on
// a throwaway runner.
func table5Setup() (reference, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	r := harness.NewRunner()
	r.Workers = runtime.NumCPU()
	if err := r.Sweep(context.Background(), harness.GridCells([]string{"EDF", "LAX"}, workload.HighRate)); err != nil {
		return nil, err
	}
	return ref, nil
}

// runTable5 runs sweeps for the measured window, alternating the two
// reference seeds (starting from the parity of seed), and reports the
// end-to-end metrics, or with rec non-nil the per-layer ones.
func runTable5(seed int64, window time.Duration, rec *Recorder, out *Report) error {
	var ref reference
	for k := 0; k < out.SetupReps; k++ {
		t := out.SetupStart(k)
		var err error
		if ref, err = table5Setup(); err != nil {
			return err
		}
		out.Setup(time.Since(t))
	}
	// Sweeps run in pairs, one per reference seed, so every run weighs the
	// two grids alike; the order within a pair follows the seed's parity.
	var sweeps []*sweep
	start := time.Now()
	first := int(seed%2+2) % 2
	for {
		for k := 0; k < 2; k++ {
			debug.FreeOSMemory() // every sweep starts from a collected heap
			sw, err := runSweep(refSeeds[(first+k)%2], rec)
			if err != nil {
				return err
			}
			sweeps = append(sweeps, sw)
			out.Attempt(int64(len(sw.cells)), int64(sw.check(ref)))
		}
		// A new pair starts only in the first 55% of the window, so a run
		// holds the same number of pairs across the host's usual speed
		// swings (two pairs for sweeps of 3.3 to 6.6 s at 24 s).
		if time.Since(start) > window*55/100 {
			break
		}
	}
	var wall, admit, done, read, cellMs, jobset Sample
	var met, jobs, events, wgs, runNs, rejected, busy, capacity float64
	for _, sw := range sweeps {
		wall.Add(sw.wall.Seconds())
		jobset.AddDur(sw.jobset)
		capacity += float64(sw.width) * (sw.wall - sw.jobset).Seconds()
		for _, st := range sw.stats {
			admit.AddDur(st.start)
			done.AddDur(st.done)
			read.AddDur(st.read)
			cellMs.AddDur(st.run + st.read)
			busy += (st.run + st.read).Seconds()
			m, _ := strconv.Atoi(st.fields["MetDeadline"])
			met += float64(m)
			jobs += float64(st.jobs)
			rejected += float64(st.rejected)
			events += float64(st.events)
			wgs += float64(st.wgs)
			runNs += float64(st.run)
		}
	}
	wallSum := wall.Sum()
	out.Set("sweep_s", wall.Median(), "s", wall.N())
	out.Set("refused_frac", ratio(rejected, jobs), "frac", int(jobs))
	out.Set("admit_p50_ms", admit.Median(), "ms", admit.N())
	out.Set("admit_p99_ms", admit.Quantile(0.99), "ms", admit.N())
	out.Set("done_p50_ms", done.Median(), "ms", done.N())
	out.Set("done_p99_ms", done.Quantile(0.99), "ms", done.N())
	out.Set("goodput_jobs_per_s", met/wallSum, "1/s", int(met))
	out.Set("sat_jobs_per_s", jobs/wallSum, "1/s", int(jobs))
	out.Set("read_p50_ms", read.Median(), "ms", read.N())
	out.Set("read_p99_ms", read.Quantile(0.99), "ms", read.N())

	out.Set("harness.cell_ms_p50", cellMs.Median(), "ms", cellMs.N())
	out.Set("harness.cell_ms_max", cellMs.Max(), "ms", cellMs.N())
	out.Set("harness.pool_idle_frac", 1-ratio(busy, capacity), "frac", len(sweeps))
	out.Set("workload.jobset_ms", jobset.Median(), "ms", jobset.N())
	out.Set("cp.ns_per_job", ratio(runNs, jobs), "ns", int(jobs))
	out.Set("sim.events", events/float64(len(sweeps)), "count", len(sweeps))
	out.Set("sim.ns_per_event", ratio(runNs, events), "ns", int(events))
	out.Set("gpu.wgs", wgs/float64(len(sweeps)), "count", len(sweeps))
	out.Set("gpu.ns_per_wg", ratio(runNs, wgs), "ns", int(wgs))
	out.Set("sched.admit_accept_frac", 1-ratio(rejected, jobs), "frac", int(jobs))
	out.Primary(wall.Median())
	return nil
}
