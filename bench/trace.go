package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval recorded from the benchmark's own files around a
// call into a layer. Spans of one operation share Op; Parent is the index of
// the span that caused this one (-1 for an operation's root span).
type span struct {
	Name       string
	Start, End time.Duration // offsets from the tracer's epoch
	Parent, Op int
	Lane       int // connection or worker the span ran on
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// disabled tracer: begin and end are no-ops, so workload code calls them
// unconditionally and the untraced pass pays one nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent, op, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op, Lane: lane})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// durationsMs returns the duration of every finished span called name.
func (t *tracer) durationsMs(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfMs is, per finished root span, its duration minus the part covered by
// its direct children: the layer's own time.
func (t *tracer) selfMs() []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for i, s := range t.spans {
		if s.Parent < 0 && s.End >= 0 {
			out = append(out, float64(s.End-s.Start-child[i])/1e6)
		}
	}
	return out
}

// writeChrome writes the spans as a Chrome trace_event file (chrome://tracing,
// Perfetto): complete events, microsecond timestamps, one thread per lane.
func (t *tracer) writeChrome(path, workload string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		events = append(events, event{
			Name: s.Name, Cat: workload, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]int{"id": i, "parent": s.Parent, "op": s.Op},
		})
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
