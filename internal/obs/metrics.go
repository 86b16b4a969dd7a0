package obs

import (
	"encoding/json"
	"sync/atomic"
	"time"
)

// epoch is the common clock every built-in recorder measures against.
// Tokens are nanosecond offsets from it, which makes them interchangeable
// between recorders: Combine can hand one Begin token to both a Metrics and
// a Tracer End and each computes the same duration.
var epoch = time.Now()

// nowNanos returns the monotonic nanoseconds elapsed since the package
// epoch.
func nowNanos() int64 { return int64(time.Since(epoch)) }

// stageAgg is one stage's lock-free aggregate.
type stageAgg struct {
	count atomic.Uint64
	ns    atomic.Int64
	maxNs atomic.Int64
}

func (a *stageAgg) record(durNs int64) {
	a.count.Add(1)
	a.ns.Add(durNs)
	for {
		cur := a.maxNs.Load()
		if durNs <= cur || a.maxNs.CompareAndSwap(cur, durNs) {
			return
		}
	}
}

// Metrics is the expvar-style aggregate recorder: per-stage span statistics
// (split into the pipeline lane and the union of shard lanes), monotonic
// counters, and gauges — all fixed-size atomics, so recording is lock-free
// and allocation-free from any number of goroutines.
type Metrics struct {
	pipeline [NumStages]stageAgg // spans recorded on LanePipeline
	shards   [NumStages]stageAgg // spans recorded on lanes ≥ 0
	counters [NumCounters]atomic.Uint64
	gauges   [NumGauges]atomic.Int64
}

// NewMetrics returns an empty aggregate recorder.
func NewMetrics() *Metrics { return &Metrics{} }

func (m *Metrics) Begin(s Stage, lane int) Token { return Token(nowNanos()) }

func (m *Metrics) End(s Stage, lane int, t Token) {
	if int(s) >= NumStages {
		return
	}
	dur := nowNanos() - int64(t)
	if dur < 0 {
		dur = 0
	}
	if lane == LanePipeline {
		m.pipeline[s].record(dur)
	} else {
		m.shards[s].record(dur)
	}
}

func (m *Metrics) Add(c Counter, n uint64) {
	if int(c) < NumCounters {
		m.counters[c].Add(n)
	}
}

func (m *Metrics) Gauge(g Gauge, delta int64) {
	if int(g) < NumGauges {
		m.gauges[g].Add(delta)
	}
}

// StageSnapshot is one stage's aggregated timing.
type StageSnapshot struct {
	Count   uint64  `json:"count"`
	TotalMs float64 `json:"total_ms"`
	MaxMs   float64 `json:"max_ms"`
}

// Snapshot is a point-in-time JSON-marshalable copy of a Metrics recorder.
// Pipeline holds the five non-overlapping bootstrap phases — their TotalMs
// values sum to (within bookkeeping epsilon) the end-to-end bootstrap wall
// time. Shards holds the per-shard work recorded on lanes ≥ 0 (individual
// rotations, batch sends/receives), which overlaps freely and therefore
// sums to more than wall time on a parallel run.
type Snapshot struct {
	Pipeline map[string]StageSnapshot `json:"pipeline"`
	Shards   map[string]StageSnapshot `json:"shards"`
	Counters map[string]uint64        `json:"counters"`
	Gauges   map[string]int64         `json:"gauges"`
	// ISA is the active instruction-set level of the modular kernels
	// ("avx2+fma", "none"), as reported by the binary at startup via SetISA —
	// process-wide, so every snapshot carries it and a metrics consumer can
	// attribute timing shifts to the dispatch decision.
	ISA string `json:"isa,omitempty"`
}

// isaLevel is the process-wide kernel ISA label (see SetISA).
var isaLevel atomic.Value

// SetISA records the active instruction-set level of the compute kernels
// (e.g. ring.SIMDLevel()) for inclusion in every subsequent Snapshot. The
// obs package deliberately does not import the kernel packages — binaries
// report the level at startup (HEAP_NOSIMD=1 is read before main runs).
func SetISA(level string) { isaLevel.Store(level) }

// ISALevel returns the recorded level, or "" if none was reported.
func ISALevel() string {
	if v := isaLevel.Load(); v != nil {
		return v.(string)
	}
	return ""
}

func snapStages(aggs *[NumStages]stageAgg) map[string]StageSnapshot {
	out := make(map[string]StageSnapshot, NumStages)
	for i := range aggs {
		a := &aggs[i]
		c := a.count.Load()
		if c == 0 {
			continue
		}
		out[Stage(i).String()] = StageSnapshot{
			Count:   c,
			TotalMs: float64(a.ns.Load()) / 1e6,
			MaxMs:   float64(a.maxNs.Load()) / 1e6,
		}
	}
	return out
}

// Snapshot copies the current aggregates. Safe to call while recording
// continues; the copy is internally consistent per field, not across
// fields.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Pipeline: snapStages(&m.pipeline),
		Shards:   snapStages(&m.shards),
		Counters: make(map[string]uint64, NumCounters),
		Gauges:   make(map[string]int64, NumGauges),
		ISA:      ISALevel(),
	}
	for i := range m.counters {
		if v := m.counters[i].Load(); v != 0 {
			s.Counters[Counter(i).String()] = v
		}
	}
	for i := range m.gauges {
		s.Gauges[Gauge(i).String()] = m.gauges[i].Load()
	}
	return s
}

// JSON renders the snapshot as indented, key-sorted JSON — the expvar-style
// exposure heapbench and the examples print after a run.
func (m *Metrics) JSON() []byte {
	b, err := json.MarshalIndent(m.Snapshot(), "", "  ")
	if err != nil {
		// Snapshot contains only maps of scalars; marshal cannot fail.
		panic(err)
	}
	return append(b, '\n')
}

// PipelineTotalMs sums the pipeline-lane stage totals — the instrumented
// account of one (or more) bootstraps' end-to-end time.
func (m *Metrics) PipelineTotalMs() float64 {
	var ns int64
	for i := range m.pipeline {
		ns += m.pipeline[i].ns.Load()
	}
	return float64(ns) / 1e6
}

// Counter returns the current value of c.
func (m *Metrics) Counter(c Counter) uint64 {
	if int(c) >= NumCounters {
		return 0
	}
	return m.counters[c].Load()
}

// GaugeValue returns the current level of g.
func (m *Metrics) GaugeValue(g Gauge) int64 {
	if int(g) >= NumGauges {
		return 0
	}
	return m.gauges[g].Load()
}

// Combine fans events out to several recorders — typically a Metrics
// aggregate plus a Tracer timeline over the same bootstrap. Nil entries are
// dropped; zero live recorders collapse to Nop. Tokens are epoch-based
// nanosecond offsets shared by all built-in recorders, so one Begin token
// serves every End.
func Combine(rs ...Recorder) Recorder {
	live := make([]Recorder, 0, len(rs))
	for _, r := range rs {
		if r != nil {
			if _, isNop := r.(Nop); isNop {
				continue
			}
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return Nop{}
	case 1:
		return live[0]
	}
	return multi{rs: live}
}
