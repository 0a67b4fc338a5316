package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// span is one traced call into a layer. Spans of one traced iteration
// share a Trace id (workload/iteration); Parent is the span that was
// open when this one began, -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Allocs and Bytes are heap allocations made while the span was open
	// (children included), recorded only for spans opened with mem.
	Allocs uint64 `json:"allocs,omitempty"`
	Bytes  uint64 `json:"bytes,omitempty"`
	// Counts are the work counters taken at this boundary.
	Counts map[string]int64 `json:"counts,omitempty"`
}

// recorder keeps spans in memory; the traced replicas run every stage on
// one goroutine, so the open spans form a stack.
type recorder struct {
	t0    time.Time
	trace string
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// do runs f inside a span named name and returns the span's index. With
// mem set the span also records the allocations f made; reading the
// allocator's counters stops the world, so per-call spans leave it off.
func (r *recorder) do(name string, mem bool, f func()) int {
	id := len(r.spans)
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: r.trace, Name: name})
	r.open = append(r.open, id)
	var before runtime.MemStats
	if mem {
		runtime.ReadMemStats(&before)
	}
	start := time.Since(r.t0)
	f()
	end := time.Since(r.t0)
	s := &r.spans[id]
	s.Start, s.End = int64(start), int64(end)
	if mem {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		s.Allocs = after.Mallocs - before.Mallocs
		s.Bytes = after.TotalAlloc - before.TotalAlloc
	}
	r.open = r.open[:len(r.open)-1]
	return id
}

// count attaches a work counter to span id.
func (r *recorder) count(id int, name string, v int) {
	s := &r.spans[id]
	if s.Counts == nil {
		s.Counts = map[string]int64{}
	}
	s.Counts[name] += int64(v)
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// selfTimes returns, per span name, the summed self time in seconds of
// the spans from index from on: a span's duration minus the part its
// child spans cover.
func (r *recorder) selfTimes(from int) map[string]float64 {
	self := make([]float64, len(r.spans)-from)
	for i, s := range r.spans[from:] {
		self[i] += s.seconds()
		if s.Parent >= from {
			self[s.Parent-from] -= s.seconds()
		}
	}
	out := map[string]float64{}
	for i, s := range r.spans[from:] {
		out[s.Name] += self[i]
	}
	return out
}

// write stores every recorded span as one JSON document.
func (r *recorder) write(path, workload string) error {
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
