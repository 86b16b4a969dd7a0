package cluster

import (
	"io"
	"sync"
	"testing"
	"time"
)

// TestLatEstimatorP99 pins the nearest-rank percentile to exact indices at
// the 8-sample arming boundary, at n=100 (where the old (n*99)/100 indexing
// overshot by one whenever 99·n was a multiple of 100: n=100 picked the
// maximum instead of the 99th of 100), and after the 256-slot ring wraps.
func TestLatEstimatorP99(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	fill := func(count int) *latEstimator {
		e := &latEstimator{}
		for i := 0; i < count; i++ {
			e.add(ms(i + 1))
		}
		return e
	}

	cases := []struct {
		name string
		adds int
		want time.Duration
	}{
		// Below the arming threshold there is no signal to hedge on.
		{"below_threshold_7", 7, 0},
		// Boundary: exactly 8 samples arm the estimator. ceil(0.99*8)=8th
		// smallest of 1..8 ms.
		{"arming_boundary_8", 8, ms(8)},
		// The case the old code got wrong: ceil(0.99*100)=99th smallest of
		// 1..100 ms is 99ms; (100*99)/100 indexed sample 100.
		{"exact_hundred", 100, ms(99)},
		// ceil(0.99*200)=198th smallest of 1..200 ms.
		{"two_hundred", 200, ms(198)},
		// Ring wraparound: 264 adds keep the newest 256 samples, values
		// 9..264 ms. ceil(0.99*256)=254th smallest → 9+253 = 262 ms.
		{"ring_wraparound", 264, ms(262)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := fill(tc.adds).p99(); got != tc.want {
				t.Fatalf("p99 after %d adds = %v, want %v", tc.adds, got, tc.want)
			}
		})
	}
}

// deadlineRecorder records SetDeadline calls; armTimeout bounds a round trip
// by deadline alone and must never Close.
type deadlineRecorder struct {
	mu    sync.Mutex
	calls []time.Time
}

func (c *deadlineRecorder) Read(p []byte) (int, error)  { return 0, io.EOF }
func (c *deadlineRecorder) Write(p []byte) (int, error) { return len(p), nil }
func (c *deadlineRecorder) Close() error                { panic("deadline path must never Close") }
func (c *deadlineRecorder) SetDeadline(d time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls = append(c.calls, d)
	return nil
}

func TestArmTimeoutPrefersDeadline(t *testing.T) {
	conn := &deadlineRecorder{}
	disarm := armTimeout(conn, time.Millisecond)
	disarm()
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if len(conn.calls) != 2 {
		t.Fatalf("want arm+clear = 2 SetDeadline calls, got %d", len(conn.calls))
	}
	if conn.calls[0].IsZero() || !conn.calls[1].IsZero() {
		t.Fatalf("want non-zero arm then zero clear, got %v", conn.calls)
	}
}

func TestArmTimeoutZeroIsUnbounded(t *testing.T) {
	conn := &deadlineRecorder{}
	disarm := armTimeout(conn, 0)
	disarm()
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if len(conn.calls) != 0 {
		t.Fatalf("zero timeout set %d deadline(s), want none", len(conn.calls))
	}
}

// TestWorkQueueFillTakesAShare pins the dispatch-batch rule: push cuts
// indices into tasks of the queue's size, and fill tops a drawn task up with
// whole queued tasks to ⌈queued / parts⌉ indices, never past the limit, and
// never names one index twice.
func TestWorkQueueFillTakesAShare(t *testing.T) {
	q := newWorkQueue(64, 8)
	all := make([]int, 64)
	for i := range all {
		all[i] = i
	}
	q.push(all)
	if got := len(q.tasks); got != 8 {
		t.Fatalf("push made %d tasks of 64 indices at size 8, want 8", got)
	}
	// 64 queued over 3 parts: a share of 22, so one more whole task.
	if got := q.fill(q.pop(), 3, 64); len(got) != 16 || got[0] != 0 || got[15] != 15 {
		t.Fatalf("first batch = %v, want indices 0..15", got)
	}
	// 48 queued, limit 16: two tasks.
	if got := q.fill(q.pop(), 2, 16); len(got) != 16 || got[0] != 16 || got[15] != 31 {
		t.Fatalf("limited batch = %v, want indices 16..31", got)
	}
	// 32 queued over 5 parts: a share of 7 is below one task; the drawn task
	// goes alone.
	if got := q.fill(q.pop(), 5, 64); len(got) != 8 || got[0] != 32 {
		t.Fatalf("tail batch = %v, want indices 32..39", got)
	}
	// A hedged copy and a reassigned copy of the same indices: one of each.
	q.push([]int{50, 51})
	got := q.fill(q.pop(), 1, 64)
	seen := make(map[int]bool)
	for _, idx := range got {
		if seen[idx] {
			t.Fatalf("batch %v names index %d twice", got, idx)
		}
		seen[idx] = true
	}
	if len(got) != 24 {
		t.Fatalf("last batch = %v, want the 24 distinct indices 40..63", got)
	}
}
