package main

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestScheduleDeterministicPerSeed(t *testing.T) {
	rs := ReadStream{JobEvery: 10 * time.Millisecond, ScrapeEvery: time.Second}
	a := Schedule(7, 1000, 5*time.Second, rs)
	b := Schedule(7, 1000, 5*time.Second, rs)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	c := Schedule(8, 1000, 5*time.Second, rs)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	count := map[OpKind]int{}
	for i, op := range a {
		count[op.Kind]++
		if i > 0 && op.Due < a[i-1].Due {
			t.Fatalf("op %d due %v before op %d due %v", i, op.Due, i-1, a[i-1].Due)
		}
		if op.Due < 0 || op.Due >= 5*time.Second {
			t.Fatalf("op %d due %v outside the phase", i, op.Due)
		}
	}
	// 5000 expected arrivals: a Poisson count is within 4 sigma (~283).
	if n := count[OpSubmit]; math.Abs(float64(n)-5000) > 283 {
		t.Errorf("%d arrivals, want about 5000", n)
	}
	if count[OpReadJob]+count[OpReadTrace] != 499 || count[OpReadFleet] != 4 || count[OpReadMetrics] != 4 {
		t.Errorf("read stream %v", count)
	}
}

func TestRunOpenChargesLatenessAndDropsNothing(t *testing.T) {
	// Ten ops all due at once on one worker that takes 5ms each: op k
	// waits for the k before it, and its latency counts that wait.
	ops := make([]Op, 10)
	var mu sync.Mutex
	ran := map[int]bool{}
	timings := RunOpen(ops, 1, func(w, i int, due time.Time) {
		time.Sleep(5 * time.Millisecond)
		mu.Lock()
		ran[i] = true
		mu.Unlock()
	})
	if len(ran) != len(ops) {
		t.Fatalf("ran %d of %d ops", len(ran), len(ops))
	}
	for k, tm := range timings {
		if min := time.Duration(k) * 5 * time.Millisecond; tm.Late < min {
			t.Errorf("op %d late %v, want at least %v", k, tm.Late, min)
		}
		if tm.Latency < tm.Late+5*time.Millisecond {
			t.Errorf("op %d latency %v does not include its lateness %v", k, tm.Latency, tm.Late)
		}
	}
}

func TestRunOpenOnTime(t *testing.T) {
	// An idle worker picks each op up close to its due instant.
	ops := Schedule(1, 500, 200*time.Millisecond, ReadStream{})
	timings := RunOpen(ops, 2, func(int, int, time.Time) {})
	var late Sample
	for _, tm := range timings {
		late.AddDur(tm.Late)
	}
	if p50 := late.Median(); p50 > 1 {
		t.Errorf("median lateness %.3fms on an idle generator", p50)
	}
}
