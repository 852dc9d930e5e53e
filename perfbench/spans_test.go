package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
	}
	self := SelfTimes(spans)
	if got := self[1]; got != 100-50-10 {
		t.Errorf("parent self time %v, want 40", got)
	}
	if got := self[2]; got != 30 {
		t.Errorf("leaf self time %v, want 30", got)
	}
}

func TestLinkByJob(t *testing.T) {
	r := NewRecorder()
	h, hs := r.Begin()
	c, cs := r.Begin()
	r.Finish(c, 0, "hop.submit", 42, cs)
	r.Finish(h, 0, "gateway.submit", 42, hs)
	o, oStart := r.Begin()
	r.Finish(o, 0, "hop.submit", 43, oStart) // no handler span for job 43
	r.LinkByJob("gateway.submit", "hop.submit")
	parents := map[int64]int64{}
	for _, s := range r.Spans() {
		parents[s.ID] = s.Parent
	}
	if parents[c] != h || parents[o] != 0 || parents[h] != 0 {
		t.Errorf("parents %v, want hop %d under gateway %d and the unmatched one at the root", parents, c, h)
	}
}
