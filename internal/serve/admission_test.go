package serve

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a virtual clock for admission and the server's newServer
// seam: it moves only on advance, so token refills and deadline expiry run on
// test time while the goroutine scheduling underneath stays real. Safe for
// concurrent use.
type fakeClock struct {
	base time.Time
	ns   atomic.Int64
}

func (c *fakeClock) now() time.Time          { return c.base.Add(time.Duration(c.ns.Load())) }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

func TestAdmissionTokenBucketRefills(t *testing.T) {
	clk := &fakeClock{base: time.Unix(1000, 0)}
	a := newAdmission(AdmissionConfig{RatePerSec: 1, Burst: 2}, clk.now)

	if err := a.admit("t", 0, 0); err != nil {
		t.Fatalf("burst token 1: %v", err)
	}
	if err := a.admit("t", 0, 0); err != nil {
		t.Fatalf("burst token 2: %v", err)
	}
	if err := a.admit("t", 0, 0); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("empty bucket must rate-limit, got %v", err)
	}
	clk.advance(time.Second) // refill exactly one token
	if err := a.admit("t", 0, 0); err != nil {
		t.Fatalf("after 1s refill: %v", err)
	}
	if err := a.admit("t", 0, 0); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("the refill was one token, not two, got %v", err)
	}
	// Refill caps at burst: a long idle does not bank unbounded tokens.
	clk.advance(time.Hour)
	for i := 0; i < 2; i++ {
		if err := a.admit("t", 0, 0); err != nil {
			t.Fatalf("capped refill token %d: %v", i+1, err)
		}
	}
	if err := a.admit("t", 0, 0); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("refill must cap at burst, got %v", err)
	}
}

func TestAdmissionBucketsArePerTenant(t *testing.T) {
	clk := &fakeClock{base: time.Unix(1000, 0)}
	a := newAdmission(AdmissionConfig{RatePerSec: 1, Burst: 1}, clk.now)
	if err := a.admit("a", 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.admit("a", 0, 0); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("tenant a exhausted, got %v", err)
	}
	if err := a.admit("b", 0, 0); err != nil {
		t.Fatalf("tenant b has its own bucket: %v", err)
	}
}

func TestAdmissionQueueLimit(t *testing.T) {
	a := newAdmission(AdmissionConfig{QueueLimit: 2}, time.Now)
	if err := a.admit("t", 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.admit("t", 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.admit("t", 0, 0); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full queue must reject, got %v", err)
	}
	if got := a.depth(); got != 2 {
		t.Fatalf("depth = %d, want 2", got)
	}
	a.release()
	if err := a.admit("t", 0, 0); err != nil {
		t.Fatalf("after release a slot is free: %v", err)
	}
	a.release()
	a.release()
	a.release() // extra releases never go negative
	if got := a.depth(); got != 0 {
		t.Fatalf("depth = %d, want 0", got)
	}
}

func TestAdmissionDeadlineBudget(t *testing.T) {
	a := newAdmission(AdmissionConfig{}, time.Now)
	err := a.admit("t", 5*time.Millisecond, 20*time.Millisecond)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("budget below projected wait must reject, got %v", err)
	}
	if err := a.admit("t", 50*time.Millisecond, 20*time.Millisecond); err != nil {
		t.Fatalf("budget above projected wait must pass: %v", err)
	}
	if err := a.admit("t", 0, 20*time.Millisecond); err != nil {
		t.Fatalf("zero budget means unbounded: %v", err)
	}
}

// TestCoalescerPoolsPerTenantFIFO: jobs added while no next() is outstanding
// (every executor busy) come out as one pool per tenant, tenants in order of
// their first pending job, jobs in arrival order — and a tenant that was
// drained re-queues behind whoever is already waiting.
func TestCoalescerPoolsPerTenantFIFO(t *testing.T) {
	c := newCoalescer()
	c.add(&job{tenant: "a", id: 1})
	c.add(&job{tenant: "b", id: 2})
	c.add(&job{tenant: "a", id: 3}) // joins a's pending pool

	jobs, ok := c.next()
	if !ok || len(jobs) != 2 || jobs[0].tenant != "a" {
		t.Fatalf("first pool = %v (ok=%v), want tenant a with 2 jobs", jobs, ok)
	}
	if jobs[0].id != 1 || jobs[1].id != 3 {
		t.Fatalf("pool order = %d,%d, want arrival order 1,3", jobs[0].id, jobs[1].id)
	}
	c.add(&job{tenant: "a", id: 4}) // a's next pool queues behind b
	jobs, ok = c.next()
	if !ok || len(jobs) != 1 || jobs[0].tenant != "b" {
		t.Fatalf("second pool = %v, want tenant b", jobs)
	}
	jobs, ok = c.next()
	if !ok || len(jobs) != 1 || jobs[0].id != 4 {
		t.Fatalf("third pool = %v, want tenant a's follow-on job 4", jobs)
	}
}

// TestCoalescerCloseDrainsImmediately: close hands out what is pending, then
// reports done — to a caller that arrives later and to one already blocked.
func TestCoalescerCloseDrainsImmediately(t *testing.T) {
	c := newCoalescer()
	c.add(&job{tenant: "a", id: 1})
	c.close()
	if jobs, ok := c.next(); !ok || len(jobs) != 1 {
		t.Fatalf("drained pool = %v (ok=%v)", jobs, ok)
	}
	if _, ok := c.next(); ok {
		t.Fatal("a closed, drained coalescer must report done")
	}

	c = newCoalescer()
	done := make(chan bool)
	go func() {
		_, ok := c.next()
		done <- ok
	}()
	c.close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("next on a closed, empty coalescer returned a pool")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close must release an executor blocked in next")
	}
}
