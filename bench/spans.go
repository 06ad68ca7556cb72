package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one op share the op
// id; Parent is the id of the span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	// Reps is how many back-to-back calls the span covers (shadow calls are
	// timed in batches); 1 for a span around a single call.
	Reps    int   `json:"reps"`
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// recorder keeps the traced run's spans in memory; they are written out
// once, when the run ends. A nil recorder records nothing, so the one op
// loop of a workload serves the timed run (nil) and the traced run alike.
type recorder struct {
	mu    sync.Mutex // serve records from two tenant goroutines
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id; 0 on a nil recorder.
func (r *recorder) begin(name string, parent, op int) int { return r.beginReps(name, parent, op, 1) }

func (r *recorder) beginReps(name string, parent, op, reps int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Reps: reps, StartNS: now})
	id := len(r.spans)
	r.mu.Unlock()
	return id
}

// end closes the span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil || id == 0 {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	s := &r.spans[id-1]
	s.EndNS = now
	d := time.Duration(s.EndNS - s.StartNS)
	r.mu.Unlock()
	return d
}

// selfMicros returns, per span name, the mean self time in microseconds: a
// span's duration minus the part of it its direct children cover.
func (r *recorder) selfMicros() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	covered := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.EndNS - s.StartNS
		}
	}
	sum := map[string]float64{}
	n := map[string]float64{}
	for _, s := range r.spans {
		sum[s.Name] += float64(s.EndNS-s.StartNS-covered[s.ID]) / 1e3
		n[s.Name]++
	}
	for name := range sum {
		sum[name] /= n[name]
	}
	return sum
}

func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
