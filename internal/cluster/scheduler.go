package cluster

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
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

// Node describes one secondary the primary can dispatch to.
type Node struct {
	// Conn is the link to the node. A link that fails is given up: the
	// node's unfinished work is reassigned, and a restarted node comes back by
	// rejoining through a Membership.
	Conn Conn
	// Name labels the node in stats and errors; for membership joiners it is
	// the registry identity a killed node rejoins under.
	Name string

	// joined marks a node that arrived through the elastic membership: it
	// dialed the primary and its join was accepted, so the primary does not
	// join it again.
	joined bool
	// needsKey marks a joiner that announced itself key-cold; the scheduler
	// streams the blind-rotate key (chunked, resumable) before handing it
	// any work.
	needsKey bool
}

// Options tunes the fault-tolerant dispatch.
type Options struct {
	// BatchTimeout bounds one round trip on a node's link (handshake, batch
	// send and the whole accumulator stream, one key-stream exchange) by a
	// deadline on the conn. 0 disables.
	BatchTimeout time.Duration
	// HedgeAfter enables hedged dispatch: an in-flight LWE index older than
	// max(HedgeAfter, hedgeMultiplier × node p99 latency) is speculatively
	// re-queued for another worker, and the first bit-exact result wins
	// (dedup by an atomic per-index claim). 0 disables hedging.
	HedgeAfter time.Duration
	// KeyChunkBytes is the chunk size of the resumable blind-rotate key
	// upload to cold joiners. 0 selects 256 KiB.
	KeyChunkBytes int
}

// hedgeMultiplier scales the observed per-node p99 per-index latency into
// the hedge threshold.
const hedgeMultiplier = 4

// DefaultOptions returns production-leaning defaults.
func DefaultOptions() Options {
	return Options{
		BatchTimeout:  30 * time.Second,
		KeyChunkBytes: 256 << 10,
	}
}

func (o Options) withDefaults() Options {
	if o.KeyChunkBytes <= 0 {
		o.KeyChunkBytes = DefaultOptions().KeyChunkBytes
	}
	return o
}

// NodeStats records one node's share of a bootstrap.
type NodeStats struct {
	Name       string
	Dispatched int   // LWE indices sent to the node
	Completed  int   // accumulators received back (claim winners)
	Failed     bool  // node permanently failed during this bootstrap
	Left       bool  // node left gracefully (drained, not failed)
	Joined     bool  // node joined mid-run through the membership
	Err        error // the failure, wrapped with the node name
}

// Stats aggregates one distributed bootstrap: where every blind rotation
// ran and how much work moved because of failures. Nodes holds pointers so
// that entries appended for mid-run joiners never invalidate the NodeStats
// a running worker already updates.
type Stats struct {
	Nodes       []*NodeStats
	Local       int // indices blind-rotated on the primary
	Reassigned  int // indices requeued after a failure or timeout
	Hedged      int // indices speculatively re-dispatched past the p99 threshold
	HedgeWasted int // accumulators that lost the hedge race
	Joined      int // nodes that joined mid-run
	Total       int // total LWE indices
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
	out := fmt.Sprintf("bootstrap: %d rotations, %d local, %d reassigned", s.Total, s.Local, s.Reassigned)
	if s.Hedged > 0 || s.HedgeWasted > 0 {
		out += fmt.Sprintf(", %d hedged (%d wasted)", s.Hedged, s.HedgeWasted)
	}
	if s.Joined > 0 {
		out += fmt.Sprintf(", %d joined", s.Joined)
	}
	out += "\n"
	for _, ns := range s.Nodes {
		state := "ok"
		switch {
		case ns.Failed:
			state = "failed"
		case ns.Left:
			state = "left"
		}
		if ns.Joined {
			state += " (joined)"
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
	remaining int
	aborted   bool
	finished  bool          // doneCh closed (remaining hit 0 or abort)
	doneCh    chan struct{} // closed when no work remains or the run aborts
	rec       obs.Recorder  // queue-depth gauge; set before workers start
}

func newWorkQueue(total, size int) *workQueue {
	q := &workQueue{remaining: total, size: size, rec: obs.Nop{}, doneCh: make(chan struct{})}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues indices — the initial set, a reassigned batch or hedged
// ones — as tasks of at most size indices, so that a large batch a failed
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
			q.rec.Gauge(obs.GaugeQueueDepth, -int64(len(t)))
			return t
		}
		q.cond.Wait()
	}
}

// fill tops task up with whole queued tasks, without blocking, while the
// batch holds at most ⌈queued / parts⌉ indices (task counted as queued) and
// at most limit. An index already in the batch is not added again: a hedged
// copy and a reassigned copy of one index can both be queued.
func (q *workQueue) fill(task []int, parts, limit int) []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	queued := len(task)
	for _, t := range q.tasks {
		queued += len(t)
	}
	share := min(limit, (queued+parts-1)/parts)
	batch := slices.Clip(task)
	seen := make(map[int]bool, len(task))
	for _, idx := range task {
		seen[idx] = true
	}
	for !q.aborted && len(q.tasks) > 0 && len(batch)+len(q.tasks[0]) <= share {
		t := q.tasks[0]
		q.tasks = q.tasks[1:]
		q.rec.Gauge(obs.GaugeQueueDepth, -int64(len(t)))
		for _, idx := range t {
			if !seen[idx] {
				seen[idx] = true
				batch = append(batch, idx)
			}
		}
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

// drain discards any tasks still queued after completion (hedged duplicates
// whose every index was already claimed elsewhere), balancing the
// queue-depth gauge.
func (q *workQueue) drain() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, t := range q.tasks {
		q.rec.Gauge(obs.GaugeQueueDepth, -int64(len(t)))
	}
	q.tasks = nil
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

// latEstimator tracks one node's per-index completion latencies (dispatch
// write to accumulator arrival) in a bounded ring and derives the p99
// estimate the hedge monitor compares in-flight ages against.
type latEstimator struct {
	mu      sync.Mutex
	samples [256]time.Duration
	n       int // valid samples (≤ len(samples))
	next    int // ring write cursor
}

func (e *latEstimator) add(d time.Duration) {
	e.mu.Lock()
	e.samples[e.next] = d
	e.next = (e.next + 1) % len(e.samples)
	if e.n < len(e.samples) {
		e.n++
	}
	e.mu.Unlock()
}

// p99 returns the 99th-percentile latency, or 0 with fewer than 8 samples
// (not enough signal to hedge on).
func (e *latEstimator) p99() time.Duration {
	e.mu.Lock()
	n := e.n
	buf := make([]time.Duration, n)
	copy(buf, e.samples[:n])
	e.mu.Unlock()
	if n < 8 {
		return 0
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	// Nearest-rank percentile: the ceil(0.99·n)-th smallest sample,
	// zero-indexed. The additive term rounds the rank up; plain (n*99)/100
	// overshoots by one whenever 99·n is a multiple of 100 (n=100 → index
	// 99, one past the nearest-rank 98).
	return buf[(n*99+99)/100-1]
}
