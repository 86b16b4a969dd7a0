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
	deadline time.Time // zero = unbounded
	cw       *connWriter
	seq      uint32 // response stream sequence, owned by the executor
	failed   bool   // a reply write failed; stop sending to this job
}

// coalescer is the cross-request batching window. Admitted jobs pool per
// tenant; a tenant's pool ripens window after its first job arrived and is
// then handed to an executor whole — every concurrent same-key request in
// the window becomes one key-major batch, so the tenant's BRK streams
// through cache once for all of them. Tenants ripen in FIFO order of their
// first pending job, so a hot tenant cannot starve the others: its follow-on
// jobs pool into the *next* window while other tenants' batches run.
type coalescer struct {
	mu      sync.Mutex
	cond    *sync.Cond
	window  time.Duration
	pending map[string][]*job
	order   []string // tenants with pending jobs, in first-arrival order
	ripeAt  map[string]time.Time
	closed  bool
}

func newCoalescer(window time.Duration) *coalescer {
	c := &coalescer{
		window:  window,
		pending: make(map[string][]*job),
		ripeAt:  make(map[string]time.Time),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// add pools one admitted job. The first job of a tenant's pool starts its
// ripening clock.
func (c *coalescer) add(j *job) {
	c.mu.Lock()
	if _, ok := c.pending[j.tenant]; !ok {
		c.order = append(c.order, j.tenant)
		c.ripeAt[j.tenant] = time.Now().Add(c.window)
	}
	c.pending[j.tenant] = append(c.pending[j.tenant], j)
	c.mu.Unlock()
	c.cond.Broadcast()
}

// next blocks until some tenant's pool is ripe (or the coalescer is closed,
// which ripens everything immediately so admitted work drains) and returns
// the whole pool. ok is false only when closed and fully drained.
func (c *coalescer) next() (jobs []*job, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if len(c.order) > 0 {
			tenant := c.order[0]
			ripe := c.ripeAt[tenant]
			now := time.Now()
			if c.closed || !now.Before(ripe) {
				jobs = c.pending[tenant]
				delete(c.pending, tenant)
				delete(c.ripeAt, tenant)
				c.order = c.order[1:]
				return jobs, true
			}
			// Not ripe yet: wake ourselves when it is. The callback passes
			// through c.mu, which this goroutine holds until Wait has
			// registered it — a bare Broadcast from a timer that fires
			// first is lost, and with one job in flight nothing else would
			// ever wake the executor. A late timer after the pool was
			// already taken just broadcasts into the void.
			t := time.AfterFunc(ripe.Sub(now), func() {
				c.mu.Lock()
				c.cond.Broadcast()
				c.mu.Unlock()
			})
			c.cond.Wait()
			t.Stop()
			continue
		}
		if c.closed {
			return nil, false
		}
		c.cond.Wait()
	}
}

// close drains the coalescer: pending pools ripen immediately and next
// returns false once they are gone.
func (c *coalescer) close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.cond.Broadcast()
}
