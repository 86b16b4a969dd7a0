package load

import (
	"runtime"
	"testing"
	"time"

	"heap/internal/serve"
)

// TestOverloadBoundedQueueWithinBudget is the overload acceptance test:
// open-loop arrivals several times past the small ring's service capacity,
// with a server-wide queue cap and a per-job deadline budget. Admission
// must shed the excess non-fatally (rejections on still-usable
// connections, zero fatal failures), keep the sampled queue depth inside
// the cap, serve everything it admits (ledger gap 0 at quiesce), and keep
// the p99 SERVICE latency of the jobs it DID admit within the deadline
// budget — the deadline-aware door refuses work it cannot finish in time
// instead of queueing it to die. Service latency (Rotate on the wire →
// reply) is the figure the budget governs; the open-loop response time
// additionally counts client-side queueing the server never sees.
//
// The budget is calibrated from a measured idle round-trip rather than
// hard-coded: the bound being tested is relative (admitted work finishes
// within a small multiple of a batch), and an absolute number would couple
// the test to host speed and the ~15× race-detector slowdown `make race`
// imposes.
func TestOverloadBoundedQueueWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("overload runs are slow")
	}
	// Each connection is synchronous (one Rotate in flight), so server-side
	// queue pressure tops out at the connection count: overload needs more
	// connections than queue slots.
	const queueCap = 4
	for _, p := range []Pattern{Uniform, Bursty} {
		p := p
		t.Run(string(p), func(t *testing.T) {
			h, err := NewHarness(Config{
				Tenants:        2,
				ConnsPerTenant: 6,
				Jobs:           120,
				RotsPerJob:     4,
				PayloadPool:    2,
				OfferedRate:    2000, // far past capacity: one 4-rotation job is ~10 ms of rotation
				Pattern:        p,
				BurstLen:       20 * time.Millisecond,
				GapLen:         60 * time.Millisecond,
				Admission:      serve.AdmissionConfig{QueueLimit: queueCap},
				Seed:           23,
				Warmup:         true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()

			// Calibrate: the slowest of three idle round-trips is the unit of
			// service time on this host, race detector included. A served job
			// under overload waits for at most queueCap batches ahead of it
			// plus its own; 8× that leaves slack for scheduler noise without
			// letting an unbounded queue hide (an uncapped queue of 120 jobs
			// would overshoot this bound many times over).
			var calib time.Duration
			for i := 0; i < 3; i++ {
				o := h.drive(h.clients[0][0], 0, i%h.cfg.PayloadPool, time.Now())
				if o.err != nil || !o.served {
					t.Fatalf("calibration job %d: served=%v err=%v", i, o.served, o.err)
				}
				if o.svcLat > calib {
					calib = o.svcLat
				}
			}
			budget := 8 * (queueCap + 1) * calib
			if budget < time.Second {
				budget = time.Second
			}
			h.cfg.Budget = budget
			t.Logf("calibrated idle round-trip %v -> budget %v", calib, budget)

			res, err := h.RunPoint()
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Fatalf("%d fatal failures under overload; rejections must be non-fatal", res.Failed)
			}
			if res.Served+res.Rejected != res.Issued {
				t.Fatalf("outcomes %d+%d don't cover %d issued", res.Served, res.Rejected, res.Issued)
			}
			if res.Rejected == 0 {
				t.Fatalf("offered %v jobs/s with queue cap %d produced no rejections; not an overload run", res.OfferedPerSec, queueCap)
			}
			if res.Served == 0 {
				t.Fatal("nothing served: connections did not survive rejections")
			}
			if res.MaxQueueDepth > queueCap {
				t.Fatalf("sampled queue depth %d exceeds cap %d", res.MaxQueueDepth, queueCap)
			}
			if gap := res.LedgerGap(); gap != 0 {
				t.Fatalf("ledger gap %d at quiesce: admitted %d served %d expired %d failed %d",
					gap, res.Admitted, res.SrvServed, res.Expired, res.SrvFailed)
			}
			if got := time.Duration(res.ServiceLatency.P99Ms * float64(time.Millisecond)); got > budget {
				t.Fatalf("service-latency p99 of admitted jobs %v exceeds deadline budget %v", got, budget)
			}
			// Expiry is checked at dispatch and execution follows, so a
			// served job can legally finish a little past its deadline — but
			// only a thin tail of them may.
			if limit := 1 + res.Served/20; res.OverBudget > limit {
				t.Fatalf("%d of %d served jobs exceeded the budget (tail allowance %d)", res.OverBudget, res.Served, limit)
			}
			t.Logf("%s: served %d rejected %d (%.0f%%), service p99 %.1fms (response p99 %.1fms), max queue %d",
				p, res.Served, res.Rejected, 100*res.RejectionRate, res.ServiceLatency.P99Ms, res.Latency.P99Ms, res.MaxQueueDepth)
		})
	}
}

// TestOverloadVirtualClockDeterministic pins admission to the harness's
// virtual clock: with a frozen clock, a 2-token bucket admits exactly the
// first two jobs of a sequential closed loop and rate-limits the other
// four — the same counts every run, because no real time elapses where the
// admission decisions look. Advancing the clock refills the bucket and the
// same connection serves again: rejection left the connection usable and
// the clock hook reaches the refill arithmetic.
func TestOverloadVirtualClockDeterministic(t *testing.T) {
	clock := NewClock()
	h, err := NewHarness(Config{
		Tenants:        1,
		ConnsPerTenant: 1,
		Jobs:           6,
		RotsPerJob:     2,
		PayloadPool:    2,
		Admission:      serve.AdmissionConfig{RatePerSec: 1, Burst: 2},
		Seed:           31,
		Now:            clock.Now,
		Verify:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	res, err := h.RunPoint()
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 2 || res.Rejected != 4 || res.RateLimited != 4 || res.Failed != 0 {
		t.Fatalf("frozen clock: served %d rejected %d (rate-limited %d) failed %d; want exactly 2/4/4/0",
			res.Served, res.Rejected, res.RateLimited, res.Failed)
	}
	if gap := res.LedgerGap(); gap != 0 {
		t.Fatalf("ledger gap %d", gap)
	}

	// Refill two tokens of virtual time: the next two jobs on the same
	// connection must both serve.
	clock.Advance(2 * time.Second)
	for i := 0; i < 2; i++ {
		o := h.drive(h.clients[0][0], 0, i%h.cfg.PayloadPool, time.Now())
		if o.err != nil || !o.served {
			t.Fatalf("job %d after Advance(2s): served=%v err=%v", i, o.served, o.err)
		}
	}
	// And the third is rate-limited again — the bucket really is on the
	// virtual clock, not wall time.
	if o := h.drive(h.clients[0][0], 0, 0, time.Now()); !o.rateLimited {
		t.Fatalf("third job after refill: want rate-limited, got served=%v err=%v", o.served, o.err)
	}
}

// TestHarnessShutdownNoGoroutineLeak: a full build–drive–Close cycle
// returns the process to its pre-harness goroutine count — the server
// drain, executors, coalescer, sampler, and per-connection reader/writer
// goroutines all exit.
func TestHarnessShutdownNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	h, err := NewHarness(Config{
		Tenants:        2,
		ConnsPerTenant: 2,
		Jobs:           8,
		RotsPerJob:     2,
		PayloadPool:    2,
		Seed:           37,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.RunPoint(); err != nil {
		h.Close()
		t.Fatal(err)
	}
	h.Close()
	h.Close() // idempotent
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
