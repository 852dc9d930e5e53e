package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded from outside it: the
// benchmark wraps the layer's public entry point and notes when the call
// started and returned. Parent links a span to the call that caused it
// (0 = none); Job is the gateway job ID when one is known (-1 otherwise).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    int64  `json:"job"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Recorder keeps spans in memory; Write dumps them when the run ends.
// Times are nanoseconds since the recorder was made.
type Recorder struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts an empty recorder.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin reserves a span ID and returns it with the start timestamp, so
// children finishing first can already point at it. On a nil recorder (an
// untraced run) Begin and Finish do nothing and the ID is 0.
func (r *Recorder) Begin() (int64, int64) {
	if r == nil {
		return 0, 0
	}
	return r.next.Add(1), r.now()
}

// Finish records a span reserved by Begin, ending now.
func (r *Recorder) Finish(id, parent int64, name string, job, start int64) {
	if r == nil {
		return
	}
	s := Span{ID: id, Parent: parent, Name: name, Job: job, Start: start, End: r.now()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

// Reset drops the spans recorded so far (set-up traffic); IDs keep
// counting.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

// LinkByJob makes each span named child the child of the span named
// parent that carries the same job ID — for calls the program makes on its
// own goroutine, where no header or argument carries the caller's span.
func (r *Recorder) LinkByJob(parent string, child ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	byJob := make(map[int64]int64)
	for _, s := range r.spans {
		if s.Name == parent && s.Job >= 0 {
			byJob[s.Job] = s.ID
		}
	}
	for i, s := range r.spans {
		for _, c := range child {
			if s.Name == c && s.Job >= 0 {
				r.spans[i].Parent = byJob[s.Job]
			}
		}
	}
}

// Spans snapshots every finished span.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Write dumps the spans as JSON lines to path.
func (r *Recorder) Write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SelfTimes returns, per span ID, the span's duration minus the part of
// its interval covered by its children (overlapping children count once).
func SelfTimes(spans []Span) map[int64]time.Duration {
	kids := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, k int) bool { return ch[i].Start < ch[k].Start })
		covered := int64(0)
		cur := s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.Dur() - time.Duration(covered)
	}
	return self
}
