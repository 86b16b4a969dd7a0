package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

// TestNopZeroAllocs is the contract the hot-path instrumentation relies on:
// recording against the default no-op recorder — including through the
// Recorder interface and through Combine's collapse — performs zero heap
// allocations, so the PR 2/3 AllocsPerRun kernel locks survive with the
// instrumentation compiled in.
func TestNopZeroAllocs(t *testing.T) {
	var r Recorder = Nop{}
	if avg := testing.AllocsPerRun(100, func() {
		tok := r.Begin(StageBlindRotate, 3)
		r.Add(CounterNTT, 14)
		r.Add(CounterExternalProduct, 1)
		r.Gauge(GaugeQueueDepth, -1)
		r.End(StageBlindRotate, 3, tok)
	}); avg != 0 {
		t.Fatalf("Nop recorder allocates %.1f objects/op, want 0", avg)
	}
	if c := Combine(nil, Nop{}, nil); c != (Nop{}) {
		t.Fatalf("Combine(nil, Nop, nil) = %T, want Nop", c)
	}
	if c := OrNop(nil); c != (Nop{}) {
		t.Fatalf("OrNop(nil) = %T, want Nop", c)
	}
}

// TestMetricsZeroAllocs locks the enabled aggregate path too: Metrics is
// fixed-size atomics, so even with metrics on, a span or counter update
// never allocates.
func TestMetricsZeroAllocs(t *testing.T) {
	var r Recorder = NewMetrics()
	if avg := testing.AllocsPerRun(100, func() {
		tok := r.Begin(StageBlindRotate, 0)
		r.Add(CounterNTT, 14)
		r.Gauge(GaugeInFlightShards, 1)
		r.Gauge(GaugeInFlightShards, -1)
		r.End(StageBlindRotate, 0, tok)
	}); avg != 0 {
		t.Fatalf("Metrics recorder allocates %.1f objects/op, want 0", avg)
	}
}

func TestMetricsAggregation(t *testing.T) {
	m := NewMetrics()
	tok := m.Begin(StageModSwitch, LanePipeline)
	time.Sleep(2 * time.Millisecond)
	m.End(StageModSwitch, LanePipeline, tok)

	tok = m.Begin(StageBlindRotate, 4)
	time.Sleep(time.Millisecond)
	m.End(StageBlindRotate, 4, tok)

	m.Add(CounterBlindRotate, 1)
	m.Add(CounterNTT, 10)
	m.Add(CounterNTT, 4)
	m.Gauge(GaugeQueueDepth, 8)
	m.Gauge(GaugeQueueDepth, -3)

	s := m.Snapshot()
	ms, ok := s.Pipeline["ModSwitch"]
	if !ok || ms.Count != 1 || ms.TotalMs <= 0 || ms.MaxMs <= 0 {
		t.Fatalf("pipeline ModSwitch snapshot wrong: %+v (ok=%v)", ms, ok)
	}
	if _, ok := s.Pipeline["BlindRotate"]; ok {
		t.Fatalf("shard-lane span leaked into the pipeline aggregate: %+v", s.Pipeline)
	}
	br, ok := s.Shards["BlindRotate"]
	if !ok || br.Count != 1 || br.TotalMs <= 0 {
		t.Fatalf("shard BlindRotate snapshot wrong: %+v (ok=%v)", br, ok)
	}
	if got := s.Counters["ntt_limb_transforms"]; got != 14 {
		t.Fatalf("ntt counter = %d, want 14", got)
	}
	if got := s.Gauges["queue_depth"]; got != 5 {
		t.Fatalf("queue_depth gauge = %d, want 5", got)
	}
	if got := m.PipelineTotalMs(); got < 1.5 {
		t.Fatalf("PipelineTotalMs = %v, want ≥ the 2ms ModSwitch span", got)
	}

	var round Snapshot
	if err := json.Unmarshal(m.JSON(), &round); err != nil {
		t.Fatalf("Metrics.JSON is not valid JSON: %v", err)
	}
	if round.Counters["blind_rotates"] != 1 {
		t.Fatalf("JSON round-trip lost counters: %+v", round.Counters)
	}
}

// TestMetricsConcurrent exercises the lock-free paths under the race
// detector.
func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	const workers, iters = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tok := m.Begin(StageBlindRotate, w)
				m.Add(CounterBlindRotate, 1)
				m.Gauge(GaugeInFlightShards, 1)
				m.Gauge(GaugeInFlightShards, -1)
				m.End(StageBlindRotate, w, tok)
			}
		}(w)
	}
	wg.Wait()
	if got := m.Counter(CounterBlindRotate); got != workers*iters {
		t.Fatalf("lost counter updates: %d, want %d", got, workers*iters)
	}
	if got := m.Snapshot().Shards["BlindRotate"].Count; got != workers*iters {
		t.Fatalf("lost span records: %d, want %d", got, workers*iters)
	}
	if got := m.GaugeValue(GaugeInFlightShards); got != 0 {
		t.Fatalf("gauge should balance to 0, got %d", got)
	}
}

func TestTracerEmitsValidChromeTrace(t *testing.T) {
	tr := NewTracer()
	tok := tr.Begin(StageModSwitch, LanePipeline)
	time.Sleep(time.Millisecond)
	tr.End(StageModSwitch, LanePipeline, tok)
	tok = tr.Begin(StageBlindRotate, 2)
	time.Sleep(time.Millisecond)
	tr.End(StageBlindRotate, 2, tok)

	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trace, err := ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sawPipeline, sawShard, sawMeta bool
	for _, ev := range trace.TraceEvents {
		switch {
		case ev.Phase == "M":
			sawMeta = true
		case ev.Phase == "X" && ev.Cat == "pipeline" && ev.Name == "ModSwitch" && ev.Tid == 0:
			sawPipeline = true
			if ev.DurUs <= 0 || math.IsNaN(ev.DurUs) {
				t.Fatalf("pipeline span has bad duration: %+v", ev)
			}
		case ev.Phase == "X" && ev.Cat == "shard" && ev.Name == "BlindRotate" && ev.Tid == 3:
			sawShard = true
		}
	}
	if !sawPipeline || !sawShard || !sawMeta {
		t.Fatalf("trace missing events: pipeline=%v shard=%v meta=%v\n%s",
			sawPipeline, sawShard, sawMeta, buf.String())
	}
	if got := trace.PipelineTotalMs(); got < 0.5 {
		t.Fatalf("PipelineTotalMs = %v, want ≥ the 1ms span", got)
	}
}

// TestCombineFansOut checks that one token drives every combined recorder.
func TestCombineFansOut(t *testing.T) {
	m := NewMetrics()
	tr := NewTracer()
	r := Combine(m, tr)
	tok := r.Begin(StageFinish, LanePipeline)
	time.Sleep(time.Millisecond)
	r.End(StageFinish, LanePipeline, tok)
	r.Add(CounterMerge, 3)

	if got := m.Snapshot().Pipeline["Finish"].Count; got != 1 {
		t.Fatalf("metrics missed the combined span: count=%d", got)
	}
	if got := m.Counter(CounterMerge); got != 3 {
		t.Fatalf("metrics missed the combined counter: %d", got)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trace, err := ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got := trace.PipelineTotalMs(); got < 0.5 {
		t.Fatalf("tracer missed the combined span: total=%vms", got)
	}
}

func TestStageNames(t *testing.T) {
	for i := 0; i < NumStages; i++ {
		if Stage(i).String() == "Stage(?)" {
			t.Fatalf("stage %d has no name", i)
		}
	}
	for i := 0; i < NumCounters; i++ {
		if Counter(i).String() == "Counter(?)" {
			t.Fatalf("counter %d has no name", i)
		}
	}
	for i := 0; i < NumGauges; i++ {
		if Gauge(i).String() == "Gauge(?)" {
			t.Fatalf("gauge %d has no name", i)
		}
	}
}
