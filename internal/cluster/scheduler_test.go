package cluster

import (
	"io"
	"sync"
	"testing"
	"time"
)

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

// TestZeroLengthTileArmsTheDeadline: a local tile measured at 0 ns — what a
// virtual clock reads for any compute — still gives the run a T, so a link
// that delivers nothing is cut at 2 × minTileTime. The wall clock never reads
// a tile as 0 ns; a start ahead of the end makes the measured length
// negative, which the slowest-tile maximum turns into the same 0.
func TestZeroLengthTileArmsTheDeadline(t *testing.T) {
	c := newTileClock(1)
	conn := &deadlineRecorder{}
	w := c.arm(conn, 0)
	defer c.disarm(w)
	c.begin(0)
	c.mu.Lock()
	c.start[0] = time.Now().Add(time.Hour)
	c.mu.Unlock()
	c.end(0)

	c.mu.Lock()
	slow, armed, last := c.slow, w.timer != nil, w.last
	c.mu.Unlock()
	if slow != 0 {
		t.Fatalf("slowest local tile %v, want 0", slow)
	}
	if !armed {
		t.Fatal("a zero-length local tile left the progress deadline unarmed")
	}
	for give := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		c.mu.Lock()
		late := w.late
		c.mu.Unlock()
		if late {
			break
		}
		if time.Now().After(give) {
			t.Fatal("the idle link was never cut")
		}
	}
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if len(conn.calls) != 1 || conn.calls[0].Before(last.Add(2*minTileTime)) {
		t.Fatalf("deadlines %v, want one cut at or after %v", conn.calls, last.Add(2*minTileTime))
	}
}

// TestWorkQueueFillTakesAShare pins the dispatch-batch rule: push cuts
// indices into tasks of the queue's size, and fill tops a drawn task up with
// whole queued tasks to ⌈queued / parts⌉ indices, never past the limit.
func TestWorkQueueFillTakesAShare(t *testing.T) {
	q := newWorkQueue(64, 8, 0)
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
	// 24 queued, one part: the rest in one batch.
	if got := q.fill(q.pop(), 1, 64); len(got) != 24 || got[0] != 40 || got[23] != 63 {
		t.Fatalf("last batch = %v, want indices 40..63", got)
	}
}

// TestWorkQueueFillLeavesUndrawnWorkersATask: while starting workers have
// yet to draw (the queue's first pops), fill tops a batch up only with the
// tasks beyond one for each of them.
func TestWorkQueueFillLeavesUndrawnWorkersATask(t *testing.T) {
	q := newWorkQueue(64, 8, 4)
	all := make([]int, 64)
	for i := range all {
		all[i] = i
	}
	q.push(all)
	// One part would take all 64, but after this draw three workers have
	// yet to draw: of the 7 tasks left, 4 join the batch.
	if got := q.fill(q.pop(), 1, 64); len(got) != 40 || got[0] != 0 || got[39] != 39 {
		t.Fatalf("first batch = %v, want indices 0..39", got)
	}
	for range 3 {
		if task := q.pop(); len(task) != 8 {
			t.Fatalf("an undrawn worker drew %v, want a whole task", task)
		}
	}
	// Every worker has drawn: a reassigned batch goes out whole again.
	q.push(all[:24])
	if got := q.fill(q.pop(), 1, 64); len(got) != 24 {
		t.Fatalf("batch after every draw = %v, want 24 indices", got)
	}
}
