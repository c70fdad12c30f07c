package main

// Spans recorded by the benchmark around its calls into the program's
// public entry points (and, for the daemon, around the lifecycle
// timestamps a job view reports). Spans live in memory and are written
// out once, when the run ends.

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval. Spans of one job or solve share Trace;
// Parent is the ID of the enclosing span, 0 for a root.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Duration returns the span's length in nanoseconds.
func (s Span) Duration() int64 { return s.End - s.Start }

// Recorder collects spans; a nil *Recorder records nothing, so untraced
// runs pass nil and pay no cost. Safe for concurrent use.
type Recorder struct {
	mu    sync.Mutex
	spans []Span
}

// Add records a finished span and returns its ID (0 on a nil Recorder).
func (r *Recorder) Add(trace, name string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

// Time runs f inside a span.
func (r *Recorder) Time(trace, name string, f func()) {
	start := time.Now()
	f()
	r.Add(trace, name, 0, start, time.Now())
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile dumps the spans as JSON.
func (r *Recorder) WriteFile(path string) error {
	b, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// SelfTimes maps each span ID to its self time: the span's duration minus
// the part of its interval covered by its children. Overlapping children
// count once, and a child reaching outside its parent counts only inside
// it.
func SelfTimes(spans []Span) map[int]int64 {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Duration() - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of the spans' intervals,
// clipped to [lo, hi].
func covered(spans []Span, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	curStart := int64(-1)
	for _, x := range iv {
		switch {
		case curStart < 0:
			curStart, end = x[0], x[1]
		case x[0] <= end:
			end = max(end, x[1])
		default:
			total += end - curStart
			curStart, end = x[0], x[1]
		}
	}
	if curStart >= 0 {
		total += end - curStart
	}
	return total
}

// layerStats aggregates self time by span name: every self time in
// milliseconds, per name.
func layerStats(spans []Span) map[string][]float64 {
	self := SelfTimes(spans)
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(self[s.ID])/1e6)
	}
	return out
}
