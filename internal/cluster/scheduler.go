package cluster

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"heap/internal/obs"
)

// Node describes one secondary the primary can dispatch to.
type Node struct {
	// Conn is the current connection (nil to dial lazily).
	Conn io.ReadWriter
	// Dial, when non-nil, reconnects after a transient failure; without it
	// the first connection error permanently fails the node and its
	// unfinished work is reassigned.
	Dial func() (io.ReadWriter, error)
	// Name labels the node in stats and errors; for membership joiners it is
	// the registry identity a killed node rejoins under.
	Name string

	// joined marks a node that arrived through the elastic membership: its
	// connection already completed the join handshake, so the hello exchange
	// is skipped.
	joined bool
	// needsKey marks a joiner that announced itself key-cold; the scheduler
	// streams the blind-rotate key (chunked, resumable) before handing it
	// any work.
	needsKey bool
}

// Options tunes the fault-tolerant dispatch.
type Options struct {
	// BatchTimeout bounds one batch round-trip (handshake, send, receive
	// all accumulators). It is enforced via SetDeadline when the conn
	// supports it, else via a watchdog that closes the conn. 0 disables.
	BatchTimeout time.Duration
	// MaxRetries is how many reconnect attempts a node with a Dial
	// function gets before its work is reassigned.
	MaxRetries int
	// BackoffBase/BackoffMax shape the exponential backoff between
	// reconnect attempts; the actual sleep is jittered in [d/2, d].
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// LocalWorkers is the number of primary-side goroutines that drain the
	// queue alongside the secondaries (fallback compute). 0 selects the
	// bootstrapper's Cfg.Workers.
	LocalWorkers int
	// ProbeInterval is how long a node connection may sit idle (no batch to
	// dispatch) before the primary sends a health probe on it. 0 disables
	// probing.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round-trip; 0 selects ProbeInterval.
	ProbeTimeout time.Duration
	// ProbeMisses is K: a node that misses this many consecutive probes is
	// drained and its pending work reassigned. 0 selects 3.
	ProbeMisses int
	// HedgeAfter enables hedged dispatch: an in-flight LWE index older than
	// max(HedgeAfter, hedgeMultiplier × node p99 latency) is speculatively
	// re-queued for another worker, and the first bit-exact result wins
	// (dedup by an atomic per-index claim). 0 disables hedging.
	HedgeAfter time.Duration
	// KeyChunkBytes is the chunk size of the resumable blind-rotate key
	// upload to cold joiners. 0 selects 256 KiB.
	KeyChunkBytes int
}

const (
	// hedgeMultiplier scales the observed per-node p99 per-index latency
	// into the hedge threshold.
	hedgeMultiplier = 4
	// jitterSeed, mixed with the node name, seeds the deterministic backoff
	// jitter and probe nonces.
	jitterSeed = 0xC1A05
)

// DefaultOptions returns production-leaning defaults.
func DefaultOptions() Options {
	return Options{
		BatchTimeout:  30 * time.Second,
		MaxRetries:    2,
		BackoffBase:   5 * time.Millisecond,
		BackoffMax:    250 * time.Millisecond,
		LocalWorkers:  0,
		ProbeInterval: 0,
		ProbeMisses:   3,
		HedgeAfter:    0,
		KeyChunkBytes: 256 << 10,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.BackoffBase <= 0 {
		o.BackoffBase = d.BackoffBase
	}
	if o.BackoffMax < o.BackoffBase {
		o.BackoffMax = o.BackoffBase
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = o.ProbeInterval
	}
	if o.ProbeMisses <= 0 {
		o.ProbeMisses = d.ProbeMisses
	}
	if o.KeyChunkBytes <= 0 {
		o.KeyChunkBytes = d.KeyChunkBytes
	}
	return o
}

// NodeStats records one node's share of a bootstrap.
type NodeStats struct {
	Name       string
	Dispatched int   // LWE indices sent to the node
	Completed  int   // accumulators received back (claim winners)
	Retries    int   // reconnect attempts
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
		out += fmt.Sprintf("  %-14s sent=%-5d done=%-5d retries=%-2d %s\n",
			ns.Name, ns.Dispatched, ns.Completed, ns.Retries, state)
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

// popTimeout is pop with an idle bound: it returns (task, false) when work
// arrives, (nil, true) once everything is complete or aborted, and
// (nil, false) when d elapses first — the idle tick a node worker uses to
// exchange health probes on an otherwise-quiet connection.
func (q *workQueue) popTimeout(d time.Duration) ([]int, bool) {
	deadline := time.Now().Add(d)
	// The callback passes through q.mu so that it cannot broadcast between
	// the deadline check below and cond.Wait registering the waiter — a
	// bare Broadcast in that gap is lost and the idle tick never comes.
	wake := time.AfterFunc(d, func() {
		q.mu.Lock()
		q.cond.Broadcast()
		q.mu.Unlock()
	})
	defer wake.Stop()
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.aborted || q.remaining == 0 {
			return nil, true
		}
		if len(q.tasks) > 0 {
			t := q.tasks[0]
			q.tasks = q.tasks[1:]
			q.rec.Gauge(obs.GaugeQueueDepth, -int64(len(t)))
			return t, false
		}
		if !time.Now().Before(deadline) {
			return nil, false
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

func (q *workQueue) isAborted() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.aborted
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

// splitmix is the deterministic jitter PRNG.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// backoff returns the jittered exponential delay for the given attempt
// (1-based): base·2^(attempt−1) capped at max, jittered into [d/2, d].
func backoff(o Options, attempt int, rng *splitmix) time.Duration {
	d := o.BackoffBase
	for i := 1; i < attempt && d < o.BackoffMax; i++ {
		d *= 2
	}
	if d > o.BackoffMax {
		d = o.BackoffMax
	}
	half := d / 2
	if half > 0 {
		d = half + time.Duration(rng.next()%uint64(half))
	}
	return d
}

// armTimeout bounds one batch round-trip. It prefers SetDeadline (net.Conn,
// net.Pipe, FaultConn); for plain ReadWriters that can at least be closed it
// falls back to a watchdog that closes the conn when the timer fires. The
// returned disarm func is idempotent (safe to call from a defer and again
// from an error-wrapping path) and reports whether the watchdog closed the
// conn. Once any disarm call has returned false, the watchdog is guaranteed
// never to close the conn afterwards: disarm publishes its intent before
// stopping the timer and, when the timer already expired, waits for the
// callback to finish so no Close can land after the caller has moved on to
// reuse the conn.
func armTimeout(conn io.ReadWriter, d time.Duration) (disarm func() bool) {
	if d <= 0 {
		return func() bool { return false }
	}
	if dl, ok := conn.(interface{ SetDeadline(time.Time) error }); ok {
		_ = dl.SetDeadline(time.Now().Add(d))
		var once sync.Once
		return func() bool {
			once.Do(func() { _ = dl.SetDeadline(time.Time{}) })
			return false
		}
	}
	c, ok := conn.(io.Closer)
	if !ok {
		return func() bool { return false }
	}
	var (
		disarmed = make(chan struct{}) // closed by the first disarm call
		finished = make(chan struct{}) // closed when the watchdog callback returns
		closed   atomic.Bool           // did the watchdog actually Close the conn?
		fired    atomic.Bool           // memoized disarm result
		once     sync.Once
	)
	t := time.AfterFunc(d, func() {
		defer close(finished)
		select {
		case <-disarmed:
			// The round-trip completed first; the conn is live again and
			// must not be closed out from under its next user.
			return
		default:
		}
		closed.Store(true)
		_ = c.Close()
	})
	return func() bool {
		once.Do(func() {
			stopped := t.Stop()
			close(disarmed)
			if !stopped {
				// The timer expired before Stop: the callback is running or
				// queued. Wait it out so the caller observes the final state
				// and no late Close races with conn reuse.
				<-finished
				fired.Store(closed.Load())
			}
		})
		return fired.Load()
	}
}

// closeConn closes conn when possible (abandoning a broken or timed-out
// stream, and unblocking a peer wedged on it).
func closeConn(conn io.ReadWriter) {
	if c, ok := conn.(io.Closer); ok {
		_ = c.Close()
	}
}

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
