package main

import (
	"math"
	"sort"
	"time"
)

// Sample is a set of observations of one quantity. Percentiles use the
// nearest-rank method, so every reported value is an observed one, and the
// count travels with them so a p99 over 80 samples reads as what it is.
type Sample struct {
	vals   []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

// AddDur records a duration in milliseconds.
func (s *Sample) AddDur(d time.Duration) { s.Add(float64(d) / 1e6) }

// N is the observation count.
func (s *Sample) N() int { return len(s.vals) }

// Quantile returns the nearest-rank q-quantile (0 < q ≤ 1), or 0 when the
// sample is empty.
func (s *Sample) Quantile(q float64) float64 {
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return s.vals[k]
}

// Median is Quantile(0.5).
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Max is the largest observation (0 when empty).
func (s *Sample) Max() float64 { return s.Quantile(1) }

// Sum adds every observation.
func (s *Sample) Sum() float64 {
	t := 0.0
	for _, v := range s.vals {
		t += v
	}
	return t
}

// ratio is a/b, or 0 when b is 0 — for per-layer ratios of layers a
// workload never exercises.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
