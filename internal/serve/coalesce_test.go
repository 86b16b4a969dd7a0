package serve

import (
	"sync"
	"testing"
	"time"
)

// TestCoalescerLoneJobAlwaysWakes is the regression test for the lost
// ripening wakeup: one pending job and a sub-millisecond window, so the
// ripening timer is the only thing that can ever wake the executor. When the
// timer's Broadcast ran without c.mu it could land before next() had
// registered in cond.Wait — arming a nearly-due timer wakes an idle P, which
// can fire it while this thread is still on its way into Wait — and then the
// executor slept forever and the client blocked in Rotate. The window sweeps
// 2–50 µs because the vulnerable case is a window a little longer than the
// add→next wake-up latency, whatever that is on the host. The watchdog turns a
// stranded job into a failure instead of a hung test binary.
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
			c := newCoalescer(0)
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
				c.mu.Lock()
				c.window = time.Duration(i%25+1) * 2 * time.Microsecond
				c.mu.Unlock()
				c.add(&job{tenant: "lone"})
				select {
				case n := <-served:
					if n != 1 {
						t.Errorf("lane %d job %d: pool of %d jobs, want 1", lane, i, n)
						return
					}
				case <-time.After(watchdog):
					t.Errorf("lane %d job %d: executor still asleep %v after a %v window ripened (lost timer wakeup)", lane, i, watchdog, c.window)
					return
				}
			}
		}(lane)
	}
	wg.Wait()
}
