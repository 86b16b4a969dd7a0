package cluster

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"heap/internal/obs"
)

// Conn is a cluster link: a closable byte stream whose round trips can be
// bounded by a deadline. net.Conn (TCP, net.Pipe) and FaultConn satisfy it.
type Conn interface {
	io.ReadWriteCloser
	SetDeadline(time.Time) error
}

// Node describes one secondary the primary dialed.
type Node struct {
	// Conn is the link to the node. A link that fails is given up: the
	// node's unfinished work is reassigned, and a restarted node comes back
	// when the next run dials it.
	Conn Conn
	// Name labels the node in stats and errors. It is also the identity the
	// primary's key-upload accounting keeps across runs, so a node keeps its
	// name from one run's link to the next.
	Name string
}

// Options tunes the fault-tolerant dispatch.
type Options struct {
	// BatchTimeout bounds one round trip on a node's link (handshake, batch
	// send and the whole accumulator stream, one key-stream exchange) by a
	// deadline on the conn. 0 disables.
	BatchTimeout time.Duration
}

// DefaultOptions returns production-leaning defaults.
func DefaultOptions() Options {
	return Options{BatchTimeout: 30 * time.Second}
}

// keyChunkBytes is the chunk size of the resumable blind-rotate key upload,
// to a key-cold node and from a tenant alike.
const keyChunkBytes = 256 << 10

// NodeStats records one node's share of a bootstrap.
type NodeStats struct {
	Name       string
	Dispatched int   // LWE indices sent to the node
	Completed  int   // accumulators received back
	Failed     bool  // node permanently failed during this bootstrap
	Err        error // the failure, wrapped with the node name
}

// Stats aggregates one distributed bootstrap: where every blind rotation
// ran and how much work moved because of failures. Nodes is in the order
// of the nodes passed to Bootstrap.
type Stats struct {
	Nodes      []NodeStats
	Local      int // indices blind-rotated on the primary
	Reassigned int // indices requeued after a failure or timeout
	Total      int // total LWE indices
}

// NodeErrors joins the per-node failures (nil when every node stayed
// healthy), naming each failed shard owner.
func (s *Stats) NodeErrors() error {
	var errs []error
	for _, ns := range s.Nodes {
		if ns.Err != nil {
			errs = append(errs, ns.Err)
		}
	}
	return errors.Join(errs...)
}

// String renders a per-shard summary table.
func (s *Stats) String() string {
	out := fmt.Sprintf("bootstrap: %d rotations, %d local, %d reassigned\n", s.Total, s.Local, s.Reassigned)
	for _, ns := range s.Nodes {
		state := "ok"
		if ns.Failed {
			state = "failed"
		}
		out += fmt.Sprintf("  %-14s sent=%-5d done=%-5d %s\n",
			ns.Name, ns.Dispatched, ns.Completed, state)
	}
	return out
}

// workQueue hands out index batches to node and local workers. remaining
// counts indices not yet completed (they may be queued or in flight);
// pop blocks until a task is available, everything is complete, or the
// bootstrap aborts.
type workQueue struct {
	mu        sync.Mutex
	cond      *sync.Cond
	tasks     [][]int
	size      int // indices per task, at most one tile: runLocal rotates a task as one
	undrawn   int // starting workers yet to draw, counted as the run's first pops; fill leaves them a task each
	remaining int
	aborted   bool
	finished  bool          // doneCh closed (remaining hit 0 or abort)
	doneCh    chan struct{} // closed when no work remains or the run aborts
	rec       obs.Recorder  // queue-depth gauge; set before workers start
}

func newWorkQueue(total, size, workers int) *workQueue {
	q := &workQueue{remaining: total, size: size, undrawn: workers, rec: obs.Nop{}, doneCh: make(chan struct{})}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues indices — the initial set or a reassigned batch — as tasks of at most size indices, so that a large batch a failed
// node hands back spreads over every worker instead of one.
func (q *workQueue) push(idxs []int) {
	if len(idxs) == 0 {
		return
	}
	q.mu.Lock()
	for lo := 0; lo < len(idxs); lo += q.size {
		hi := min(lo+q.size, len(idxs))
		q.tasks = append(q.tasks, idxs[lo:hi:hi])
	}
	q.mu.Unlock()
	q.rec.Gauge(obs.GaugeQueueDepth, int64(len(idxs)))
	q.cond.Broadcast()
}

// pop returns the next task, or nil once all work is complete or aborted.
func (q *workQueue) pop() []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.aborted || q.remaining == 0 {
			return nil
		}
		if len(q.tasks) > 0 {
			t := q.tasks[0]
			q.tasks = q.tasks[1:]
			q.undrawn = max(q.undrawn-1, 0)
			q.rec.Gauge(obs.GaugeQueueDepth, -int64(len(t)))
			return t
		}
		q.cond.Wait()
	}
}

// fill tops task up with whole queued tasks, without blocking, while the
// batch holds at most ⌈queued / parts⌉ indices (task counted as queued) and
// at most limit, and a task stays queued for each starting worker yet to
// draw one.
func (q *workQueue) fill(task []int, parts, limit int) []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	queued := len(task)
	for _, t := range q.tasks {
		queued += len(t)
	}
	share := min(limit, (queued+parts-1)/parts)
	batch := slices.Clip(task)
	for !q.aborted && len(q.tasks) > q.undrawn && len(batch)+len(q.tasks[0]) <= share {
		t := q.tasks[0]
		q.tasks = q.tasks[1:]
		q.rec.Gauge(obs.GaugeQueueDepth, -int64(len(t)))
		batch = append(batch, t...)
	}
	return batch
}

// done marks k indices complete.
func (q *workQueue) done(k int) {
	q.mu.Lock()
	q.remaining -= k
	fin := q.remaining <= 0 && !q.finished
	if fin {
		q.finished = true
	}
	q.mu.Unlock()
	if fin {
		close(q.doneCh)
		q.cond.Broadcast()
	}
}

// abort wakes every waiter and stops new work from being handed out.
func (q *workQueue) abort() {
	q.mu.Lock()
	q.aborted = true
	fin := !q.finished
	if fin {
		q.finished = true
	}
	q.mu.Unlock()
	if fin {
		close(q.doneCh)
	}
	q.cond.Broadcast()
}

// armTimeout bounds one round trip on conn by a deadline d from now (d ≤ 0
// leaves it unbounded) and returns the func that clears it. A read or write
// cut by the deadline fails with an error wrapping os.ErrDeadlineExceeded.
func armTimeout(conn Conn, d time.Duration) (disarm func()) {
	if d <= 0 {
		return func() {}
	}
	_ = conn.SetDeadline(time.Now().Add(d))
	return func() { _ = conn.SetDeadline(time.Time{}) }
}

// closeConn closes conn, abandoning a broken or timed-out stream and
// unblocking a peer wedged on it.
func closeConn(conn Conn) { _ = conn.Close() }

// tileClock is one run's progress deadline: a node link must deliver one
// tile's worth of accumulators — min(tfhe.Tile, accumulators still due in the
// batch) — within 2 × T, where T is the slowest tile the primary's own local
// workers have rotated in the run. Until the first local tile completes there
// is no T, and a batch is bounded by BatchTimeout alone. A link that misses
// its deadline fails as a cut link does.
//
// A tile still being rotated counts toward T with its age so far, so a
// primary that stalls does not cut the nodes it stalls with, and T is at
// least minTileTime (see there).
type tileClock struct {
	mu    sync.Mutex
	slow  time.Duration // the slowest completed local tile
	timed bool          // a local tile has completed, so slow is T's floor
	start []time.Time   // per local worker, the start of its tile in progress; zero: none
	links map[*linkWait]bool
}

// minTileTime is the least T. The Go scheduler runs a goroutine for up to
// 10 ms before it lets another have the CPU, so where goroutines outnumber
// CPUs — a node that shares its CPUs with the primary, as every in-process
// test node does — a tile's worth of accumulators can wait several slices
// however short the tile. A tile shorter than a few slices does not measure
// the rate a node keeps: at logN 6 a local tile takes 5–13 ms, and a healthy
// in-process node's tile's worth took up to 30 ms (2.3 × the slowest local
// tile) on two CPUs. The bound binds only such small rings: a tile at logN 10
// takes 80–135 ms.
const minTileTime = 50 * time.Millisecond

func newTileClock(workers int) *tileClock {
	return &tileClock{start: make([]time.Time, workers), links: make(map[*linkWait]bool)}
}

// linkWait is one link's wait for a batch's accumulators.
type linkWait struct {
	conn  Conn
	last  time.Time   // the batch send or its last tile's worth
	timer *time.Timer // fires at last + 2 × T
	late  bool        // cut by the progress deadline
}

// begin and end bracket local worker w's rotation of one tile; end judges
// every waiting link against the new T.
func (c *tileClock) begin(w int) {
	c.mu.Lock()
	c.start[w] = time.Now()
	c.mu.Unlock()
}

func (c *tileClock) end(w int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.slow = max(c.slow, now.Sub(c.start[w]))
	c.timed = true
	c.start[w] = time.Time{}
	for lw := range c.links {
		c.judge(lw, now)
	}
}

// arm starts conn's wait for a batch, bounded by batchTimeout (≤ 0: none)
// and by the progress deadline.
func (c *tileClock) arm(conn Conn, batchTimeout time.Duration) *linkWait {
	now := time.Now()
	if batchTimeout > 0 {
		_ = conn.SetDeadline(now.Add(batchTimeout))
	}
	w := &linkWait{conn: conn, last: now}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.links[w] = true
	c.judge(w, now)
	return w
}

// progress records that w's link delivered a tile's worth of accumulators.
func (c *tileClock) progress(w *linkWait) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w.last = time.Now()
	c.judge(w, w.last)
}

// disarm ends w's wait and clears its link's deadline.
func (c *tileClock) disarm(w *linkWait) {
	c.mu.Lock()
	delete(c.links, w)
	if w.timer != nil {
		w.timer.Stop()
	}
	c.mu.Unlock()
	_ = w.conn.SetDeadline(time.Time{})
}

// t is T at now: the slowest local tile, completed or in progress, and at
// least minTileTime; c.mu is held.
func (c *tileClock) t(now time.Time) time.Duration {
	t := max(c.slow, minTileTime)
	for _, s := range c.start {
		if !s.IsZero() {
			t = max(t, now.Sub(s))
		}
	}
	return t
}

// judge cuts w's link if it is late at now — by a deadline already past,
// which fails its pending read — or else sets w's timer for last + 2 × T;
// c.mu is held.
func (c *tileClock) judge(w *linkWait, now time.Time) {
	if w.late || !c.timed {
		return
	}
	wait := w.last.Add(2 * c.t(now)).Sub(now)
	switch {
	case wait <= 0:
		w.late = true
		_ = w.conn.SetDeadline(now)
	case w.timer == nil:
		w.timer = time.AfterFunc(wait, func() {
			c.mu.Lock()
			defer c.mu.Unlock()
			if c.links[w] {
				c.judge(w, time.Now())
			}
		})
	default:
		w.timer.Reset(wait)
	}
}

// timeout describes the deadline w's link missed: the progress deadline or
// the batch's batchTimeout.
func (c *tileClock) timeout(w *linkWait, batchTimeout time.Duration) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !w.late {
		return fmt.Sprintf("timed out after %v", batchTimeout)
	}
	now := time.Now()
	return fmt.Sprintf("timed out after %v without a tile of accumulators (T %v)",
		now.Sub(w.last).Round(time.Millisecond), c.t(now).Round(time.Microsecond))
}
