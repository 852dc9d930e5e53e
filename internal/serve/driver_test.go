package serve

import (
	"testing"
	"time"

	"laxgpu/internal/cp"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

func testLibAndConfig() (*workload.Library, cp.SystemConfig) {
	cfg := cp.DefaultSystemConfig()
	return workload.NewLibrary(cfg.GPU), cfg
}

// sampleJob draws one job from the named benchmark; ID and arrival are
// stamped by Node.Submit.
func sampleJob(t *testing.T, lib *workload.Library, name string) *workload.Job {
	t.Helper()
	b, err := workload.FindBenchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	return b.Sample(lib, sim.NewRNG(9), 0, 0)
}

func TestWallClock(t *testing.T) {
	c := NewWallClock(100)
	a := c.Now()
	time.Sleep(2 * time.Millisecond)
	b := c.Now()
	if b <= a {
		t.Fatalf("clock did not advance: %v then %v", a, b)
	}
	// 2ms of wall time at speed 100 is at least 200ms simulated.
	if b-a < 200*sim.Millisecond {
		t.Errorf("speed-100 clock advanced only %v over 2ms wall", b-a)
	}
	if d := c.Until(c.Now() - sim.Second); d != 0 {
		t.Errorf("Until(past) = %v, want 0", d)
	}
	// A simulated second ahead at speed 100 is ~10ms of wall time.
	d := c.Until(c.Now() + sim.Second)
	if d <= 0 || d > 11*time.Millisecond {
		t.Errorf("Until(+1s) = %v, want ~10ms", d)
	}
	if NewWallClock(0).speed != 1 {
		t.Error("non-positive speed should default to real time")
	}
}

func TestDriverBackpressure(t *testing.T) {
	node, err := NewNode(NodeConfig{Scheduler: "LAX"})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDriver(node, NewWallClock(1), 1)
	// Not started yet: the queue holds exactly one command.
	if !d.Do(func() {}) {
		t.Fatal("first Do should enqueue")
	}
	if d.Do(func() {}) {
		t.Fatal("second Do should report a full accept queue")
	}
	d.Start()
	// The loop needs a moment to drain the queued command before a new one
	// fits in the size-1 queue.
	ran := false
	for i := 0; i < 1000 && !ran; i++ {
		if !d.Call(func() { ran = true }) {
			time.Sleep(time.Millisecond)
		}
	}
	if !ran {
		t.Fatal("Call on a running driver never succeeded")
	}
	if forced := d.Shutdown(10 * time.Millisecond); forced != 0 {
		t.Errorf("idle shutdown forced %d jobs, want 0", forced)
	}
	select {
	case <-d.Done():
	default:
		t.Error("Done not closed after Shutdown")
	}
	if d.Do(func() {}) {
		t.Error("Do after shutdown should refuse")
	}
	if d.Call(func() {}) {
		t.Error("Call after shutdown should refuse")
	}
	// Repeat shutdown is a no-op wait.
	if forced := d.Shutdown(time.Millisecond); forced != 0 {
		t.Errorf("repeat shutdown forced %d", forced)
	}
}

func TestDriverPacesSubmittedJob(t *testing.T) {
	node, err := NewNode(NodeConfig{Scheduler: "LAX"})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDriver(node, NewWallClock(1000), 8)
	d.Start()
	defer d.Shutdown(time.Second)

	lib, cfg := testLibAndConfig()
	job := sampleJob(t, lib, "STEM")
	_ = cfg
	var submitted bool
	if !d.Call(func() { submitted = !node.Submit(job).Rejected() }) {
		t.Fatal("submit command did not run")
	}
	if !submitted {
		t.Fatal("single job on an idle node should be admitted")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var left int
		if !d.Call(func() { left = node.UnfinishedCount() }) {
			t.Fatal("driver stopped while polling")
		}
		if left == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish under real-time pacing")
		}
		time.Sleep(time.Millisecond)
	}
}
