package cp

import (
	"testing"

	"laxgpu/internal/gpu"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// TestDispatchPassSkipsOnlyFailedDescs pins the dispatch pass's no-fit memo
// under every placement policy. With the device nearly full, one pass
// offers, in priority order: a job whose WG footprint no longer fits, a
// second job on the same kernel desc, and a job with a smaller footprint.
// The first fails, the second must not be retried (the memo records the
// desc once), and the failure must not block the third, which places all
// its WGs in the same pass.
func TestDispatchPassSkipsOnlyFailedDescs(t *testing.T) {
	for _, placement := range []gpu.PlacementPolicy{gpu.FirstFit, gpu.BestFit, gpu.RoundRobin} {
		t.Run(placement.String(), func(t *testing.T) {
			cfg := smallConfig()
			cfg.GPU.NumCUs = 2
			cfg.GPU.Placement = placement
			// fill leaves 512 threads and 8 wavefront slots free per CU:
			// no room for a 1024-thread big WG, room for two 256-thread
			// small WGs on each CU.
			fill := testDesc("fill", 2, 2048, sim.Millisecond)
			big := testDesc("big", 2, 1024, sim.Millisecond)
			small := testDesc("small", 4, 256, sim.Millisecond)
			set := &workload.JobSet{Benchmark: "synthetic"}
			for id, d := range []*gpu.KernelDesc{fill, big, big, small} {
				set.Jobs = append(set.Jobs, &workload.Job{
					ID: id, Benchmark: "synthetic", Deadline: 10 * sim.Millisecond,
					Kernels: []*gpu.KernelDesc{d},
				})
			}
			// Priority follows job ID. All but the filler start paused, so
			// they first meet the device together, in one pass.
			pol := &fifoPolicy{admitFn: func(j *JobRun) bool {
				j.Priority = int64(j.Job.ID)
				if j.Job.ID > 0 {
					j.Pause()
				}
				return true
			}}
			sys := NewSystem(cfg, set, pol)
			checked := false
			sys.Engine().Schedule(50*sim.Microsecond, func() {
				if got := sys.Job(0).Current().RemainingWGs(); got != 0 {
					t.Fatalf("filler has %d WGs unplaced before the pass", got)
				}
				for id := 1; id <= 3; id++ {
					sys.Job(id).Resume()
				}
				sys.Dispatch()
				checked = true
				for id := 1; id <= 2; id++ {
					if got := sys.Job(id).Current().RemainingWGs(); got != 2 {
						t.Errorf("big job %d placed %d WGs, want 0", id, 2-got)
					}
				}
				if got := sys.Job(3).Current().RemainingWGs(); got != 0 {
					t.Errorf("small job has %d WGs unplaced: a higher-priority failure blocked it", got)
				}
				if len(sys.noFit) != 1 || sys.noFit[0] != big {
					t.Errorf("no-fit memo %v, want [big] once (the second big job was retried)", sys.noFit)
				}
			})
			sys.Run()
			if !checked {
				t.Fatal("pass never ran")
			}
			for id := 0; id <= 3; id++ {
				if !sys.Job(id).Done() {
					t.Errorf("job %d not done: %v", id, sys.Job(id))
				}
			}
		})
	}
}
