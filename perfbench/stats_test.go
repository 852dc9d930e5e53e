package main

import "testing"

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Median() != 0 {
		t.Fatal("empty sample")
	}
	for v := 100; v >= 1; v-- {
		s.Add(float64(v))
	}
	if s.N() != 100 {
		t.Fatalf("N = %d", s.N())
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	s.Add(1000)
	if s.N() != 101 || s.Max() != 1000 || s.Quantile(0.99) != 100 {
		t.Errorf("after Add: N=%d max=%v p99=%v", s.N(), s.Max(), s.Quantile(0.99))
	}
}
