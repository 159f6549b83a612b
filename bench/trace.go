package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer. Start and End are
// nanoseconds since the tracer was created; Parent is the index of the span
// that caused this one (-1 for a root); ID is the slot or submit number the
// span belongs to, shared by every span of that operation.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     int    `json:"id"`
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// tracer records nothing, so untraced runs pay one nil check per boundary.
// Spans are only ever added from one goroutine at a time: the simulator
// workloads are single-threaded and the controller workload records its
// submit and tick spans after the load has been joined.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its index for use as a parent.
func (tr *tracer) add(name string, start, end time.Time, parent, id int) int {
	if tr == nil {
		return -1
	}
	tr.spans = append(tr.spans, span{name, int64(start.Sub(tr.t0)), int64(end.Sub(tr.t0)), parent, id})
	return len(tr.spans) - 1
}

func (tr *tracer) count() int {
	if tr == nil {
		return 0
	}
	return len(tr.spans)
}

// recordCost times the recorder on a throwaway tracer: the per-span cost the
// traced run paid, used for the in-process trace.overhead_frac estimate.
func recordCost() time.Duration {
	const n = 100000
	tmp := newTracer()
	now := time.Now()
	for i := 0; i < n; i++ {
		tmp.add("calib", now, now, -1, i)
	}
	return time.Since(now) / n
}

func (tr *tracer) write(dir, workload string) error {
	if tr == nil {
		return nil
	}
	return writeJSON(filepath.Join(dir, "trace-"+workload+".json"), map[string]any{
		"workload": workload,
		"spans":    tr.spans,
	})
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
