package serve

import (
	"sync"
	"testing"
	"time"
)

// TestCoalescerAddWakesBlockedNext: the executor parked in next() on an
// idle coalescer is woken by add itself — there is no timer to wait out —
// and, parked again with nothing pending, by close.
func TestCoalescerAddWakesBlockedNext(t *testing.T) {
	c := newCoalescer()
	type taken struct {
		jobs []*job
		ok   bool
	}
	out := make(chan taken)
	park := func() {
		go func() {
			jobs, ok := c.next()
			out <- taken{jobs, ok}
		}()
		// Not synchronisation — the test holds in either order — only a
		// nudge so the executor is usually asleep in cond.Wait when the
		// event arrives.
		time.Sleep(5 * time.Millisecond)
	}
	park()
	c.add(&job{tenant: "lone", id: 7})
	select {
	case got := <-out:
		if !got.ok || len(got.jobs) != 1 || got.jobs[0].id != 7 {
			t.Fatalf("woken executor got %v (ok=%v), want the lone job", got.jobs, got.ok)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("add did not wake the executor blocked in next")
	}
	park()
	select {
	case got := <-out:
		t.Fatalf("executor returned %v (ok=%v) with nothing pending", got.jobs, got.ok)
	case <-time.After(20 * time.Millisecond):
	}
	c.close()
	select {
	case got := <-out:
		if got.ok {
			t.Fatalf("executor got %v after close, want done", got.jobs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close did not wake the executor blocked in next")
	}
}

// TestCoalescerLoneJobAlwaysWakes is the regression test for the lost
// wakeup: one pending job, so add's Signal is the only thing that can ever
// wake the executor. When the coalescer still had a ripening timer, the
// timer's Broadcast ran without c.mu and could land before next() had
// registered in cond.Wait; the executor then slept forever and the client
// blocked in Rotate. The timer is gone, the property stays: add changes the
// state under c.mu, so whichever side gets there first, the executor sees
// the job. The watchdog turns a stranded job into a failure instead of a hung
// test binary.
func TestCoalescerLoneJobAlwaysWakes(t *testing.T) {
	const (
		lanes    = 2
		jobs     = 2000
		watchdog = 5 * time.Second
	)
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			c := newCoalescer()
			defer c.close()             // releases a stranded executor goroutine on failure
			served := make(chan int, 1) // one job in flight per lane: never blocks the executor
			go func() {
				for {
					pool, ok := c.next()
					if !ok {
						return
					}
					served <- len(pool)
				}
			}()
			for i := 0; i < jobs; i++ {
				c.add(&job{tenant: "lone"})
				select {
				case n := <-served:
					if n != 1 {
						t.Errorf("lane %d job %d: pool of %d jobs, want 1", lane, i, n)
						return
					}
				case <-time.After(watchdog):
					t.Errorf("lane %d job %d: executor still asleep %v after the job was added (lost wakeup)", lane, i, watchdog)
					return
				}
			}
		}(lane)
	}
	wg.Wait()
}
