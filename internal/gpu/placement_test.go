package gpu

import (
	"testing"

	"laxgpu/internal/sim"
)

func TestPlacementPolicyString(t *testing.T) {
	if FirstFit.String() != "first-fit" || BestFit.String() != "best-fit" ||
		RoundRobin.String() != "round-robin" {
		t.Fatal("placement names wrong")
	}
	if PlacementPolicy(9).String() != "PlacementPolicy(9)" {
		t.Fatal("unknown placement name wrong")
	}
	cfg := DefaultConfig()
	cfg.Placement = PlacementPolicy(9)
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown placement accepted")
	}
}

// occupancyByCU dispatches n WGs of warm under the placement policy and
// reports per-CU active WGs.
func occupancyByCU(t *testing.T, placement PlacementPolicy, warm *KernelDesc, n int) []int {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Placement = placement
	eng := sim.NewEngine()
	d := New(cfg, eng)

	wi := NewKernelInstance(warm, 0, 0, 0)
	wi.MarkReady(0)
	if got := d.TryDispatch(wi, n); got != n {
		t.Fatalf("warm dispatch placed %d, want %d", got, n)
	}
	counts := make([]int, cfg.NumCUs)
	for i, cu := range d.cus {
		counts[i] = cu.activeWGs
	}
	return counts
}

func TestFirstFitPacksLowCUs(t *testing.T) {
	small := testKernel("s", 64, 256, sim.Millisecond, 0)
	counts := occupancyByCU(t, FirstFit, small, 10)
	// 10 small WGs of 256 threads fill CU0 (capacity 10) entirely.
	if counts[0] != 10 {
		t.Fatalf("first-fit spread: %v", counts)
	}
}

func TestRoundRobinSpreads(t *testing.T) {
	small := testKernel("s", 64, 256, sim.Millisecond, 0)
	counts := occupancyByCU(t, RoundRobin, small, 8)
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("round-robin did not spread: CU%d has %d (%v)", i, c, counts)
		}
	}
}

func TestBestFitPreservesHolesForWideWGs(t *testing.T) {
	cfg := DefaultConfig()
	eng := sim.NewEngine()
	cfg.Placement = BestFit
	d := New(cfg, eng)

	// Pre-fill CU0 with 2048 threads (one fat WG): 512 threads left there.
	fat := testKernel("fat", 1, 2048, sim.Millisecond, 0)
	fi := NewKernelInstance(fat, 0, 0, 0)
	fi.MarkReady(0)
	d.TryDispatch(fi, -1)

	// A 256-thread filler should go to CU0 (tightest fit), leaving the
	// other CUs' full 2560-thread holes intact for a second fat WG.
	small := testKernel("s", 1, 256, sim.Millisecond, 0)
	si := NewKernelInstance(small, 1, 1, 0)
	si.MarkReady(0)
	d.TryDispatch(si, -1)
	if d.cus[0].activeWGs != 2 {
		t.Fatalf("best-fit did not pack the fragmented CU: CU0 has %d WGs", d.cus[0].activeWGs)
	}

	// First-fit would have done the same here (CU0 is first); the real
	// distinction: pre-fragment CU1 *less* than CU0 and best-fit must still
	// pick the tighter CU0.
	eng2 := sim.NewEngine()
	d2 := New(cfg, eng2)
	half := testKernel("half", 1, 1280, sim.Millisecond, 0)
	f2 := NewKernelInstance(fat, 0, 0, 0) // 2048 on some CU
	h2 := NewKernelInstance(half, 1, 1, 0)
	f2.MarkReady(0)
	h2.MarkReady(0)
	d2.TryDispatch(h2, -1) // 1280 free = 1280 on its CU
	d2.TryDispatch(f2, -1) // 512 free on its CU
	s2 := NewKernelInstance(small, 2, 2, 0)
	s2.MarkReady(0)
	d2.TryDispatch(s2, -1)
	// The small WG must share the fat WG's CU (512 free, tightest).
	for i, cu := range d2.cus {
		if cu.activeWGs == 2 {
			if cu.threadsFree != 2560-2048-256 {
				t.Fatalf("small WG packed onto the wrong CU %d (free %d)", i, cu.threadsFree)
			}
			return
		}
	}
	t.Fatal("small WG did not share a CU")
}

func TestPlacementPoliciesAllComplete(t *testing.T) {
	// Whatever the placement, all work completes and resources drain.
	for _, p := range []PlacementPolicy{FirstFit, BestFit, RoundRobin} {
		cfg := DefaultConfig()
		cfg.Placement = p
		eng := sim.NewEngine()
		d := New(cfg, eng)
		a := NewKernelInstance(testKernel("a", 40, 1024, 50*sim.Microsecond, 0.5), 0, 0, 0)
		b := NewKernelInstance(testKernel("b", 20, 2048, 80*sim.Microsecond, 0.3), 1, 1, 0)
		a.MarkReady(0)
		b.MarkReady(0)
		d.OnWGComplete(func(*KernelInstance) {
			d.TryDispatch(a, -1)
			d.TryDispatch(b, -1)
		})
		d.TryDispatch(a, -1)
		d.TryDispatch(b, -1)
		eng.Run()
		if !a.Done() || !b.Done() {
			t.Fatalf("%v: kernels did not finish", p)
		}
		if d.ActiveWGs() != 0 || d.FreeThreads() != cfg.TotalThreads() {
			t.Fatalf("%v: resources not conserved", p)
		}
	}
}

// TestFailedPlacementKeepsRoundRobinCursor pins the property the CP's
// dispatch-pass memo relies on: a TryDispatch that places nothing changes
// no device state, not even RoundRobin's scan cursor, so skipping it is
// unobservable.
func TestFailedPlacementKeepsRoundRobinCursor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Placement = RoundRobin
	d := New(cfg, sim.NewEngine())
	// Half-CU WGs: one on every CU, then a second on CUs 0-2, leaving the
	// cursor at CU3 and no CU with a whole CU's threads free.
	half := NewKernelInstance(testKernel("half", cfg.NumCUs+3, cfg.ThreadsPerCU/2, sim.Millisecond, 0), 0, 0, 0)
	half.MarkReady(0)
	if got := d.TryDispatch(half, -1); got != cfg.NumCUs+3 {
		t.Fatalf("half placed %d WGs, want %d", got, cfg.NumCUs+3)
	}
	if d.rrCursor != 3 {
		t.Fatalf("cursor at %d after the warm-up, want 3", d.rrCursor)
	}
	whole := NewKernelInstance(testKernel("whole", 1, cfg.ThreadsPerCU, sim.Millisecond, 0), 1, 1, 0)
	whole.MarkReady(0)
	if got := d.TryDispatch(whole, -1); got != 0 {
		t.Fatalf("whole-CU WG placed on a device with no empty CU (%d)", got)
	}
	if d.rrCursor != 3 {
		t.Fatalf("failed placement moved the round-robin cursor 3 -> %d", d.rrCursor)
	}
}
