package serve

import (
	"sync"
	"time"

	"heap/internal/rlwe"
)

// job is one admitted batch request: a set of (client-local index, LWE)
// pairs from one connection, to be blind-rotated under its tenant's key.
type job struct {
	tenant   string
	id       uint32 // client-chosen job id (frame Shard), echoed on every reply
	idxs     []int
	lwes     []*rlwe.LWECiphertext
	deadline time.Time // zero = unbounded, on the server's clock
	admitted time.Time // wall clock at admission, for queue_wait_ms
	cw       *connWriter
	seq      uint32 // response stream sequence, owned by the executor
	failed   bool   // a reply write failed; stop sending to this job
}

// coalescer is the work-conserving cross-request batcher. Admitted jobs pool
// per tenant; next is only ever called by the server's one executor when it
// is idle, so it hands over the head tenant's whole pool the moment one
// exists — a lone job on an idle server is never held back for company. Jobs
// that arrive while the executor is busy keep pooling, and that is where
// coalescing pays: all the same-key requests that queued behind a running
// batch become one key-major batch, so the tenant's BRK streams through
// cache once for all of them. Tenants are served in FIFO order of their
// first pending job, so a hot tenant cannot starve the others: its
// follow-on jobs pool behind theirs.
type coalescer struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending map[string][]*job
	order   []string // tenants with pending jobs, in first-arrival order
	closed  bool
}

func newCoalescer() *coalescer {
	c := &coalescer{pending: make(map[string][]*job)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// add pools one admitted job and wakes the executor if it is idle; it is
// the one waiter, so a Signal reaches it.
func (c *coalescer) add(j *job) {
	c.mu.Lock()
	if _, ok := c.pending[j.tenant]; !ok {
		c.order = append(c.order, j.tenant)
	}
	c.pending[j.tenant] = append(c.pending[j.tenant], j)
	c.mu.Unlock()
	c.cond.Signal()
}

// next blocks until some tenant has pending jobs and returns that tenant's
// whole pool. ok is false only when the coalescer is closed and fully
// drained.
func (c *coalescer) next() (jobs []*job, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.order) == 0 {
		if c.closed {
			return nil, false
		}
		c.cond.Wait()
	}
	tenant := c.order[0]
	c.order = c.order[1:]
	jobs = c.pending[tenant]
	delete(c.pending, tenant)
	return jobs, true
}

// close drains the coalescer: next keeps returning pending pools and reports
// false once they are gone.
func (c *coalescer) close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.cond.Signal()
}
