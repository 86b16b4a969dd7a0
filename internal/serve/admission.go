package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Rejection reasons. They travel to the client as the bounded reason string
// of a FrameRejected frame; clients match them back via RejectedError.
var (
	// ErrRateLimited reports an empty per-tenant token bucket.
	ErrRateLimited = errors.New("rate limit exceeded for tenant")
	// ErrQueueFull reports the server-wide job queue at capacity
	// (reject-on-full: admission sheds load instead of buffering it).
	ErrQueueFull = errors.New("job queue full")
	// ErrDeadline reports a job whose deadline budget is smaller than the
	// projected queue wait (the estimated batch service time) — it would
	// expire before its accumulators could be produced, so it is refused at
	// the door rather than queued to die.
	ErrDeadline = errors.New("deadline budget below projected queue wait")
)

// AdmissionConfig tunes the front door.
type AdmissionConfig struct {
	// QueueLimit caps jobs admitted but not yet dispatched (0 = unbounded).
	QueueLimit int
	// RatePerSec is each tenant's token refill rate (0 = unlimited).
	RatePerSec float64
	// Burst is each tenant's bucket capacity; defaults to max(1, RatePerSec).
	Burst float64
}

// admission is the deadline-aware front door: a server-wide reject-on-full
// queue cap plus one token bucket per tenant, so a tenant blasting jobs
// exhausts its own bucket while everyone else's tokens — and the shared
// queue space its rejected jobs never occupy — keep flowing.
type admission struct {
	cfg AdmissionConfig
	now func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
	queued  int
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newAdmission(cfg AdmissionConfig, now func() time.Time) *admission {
	if cfg.Burst <= 0 {
		cfg.Burst = cfg.RatePerSec
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	return &admission{cfg: cfg, now: now, buckets: make(map[string]*bucket)}
}

// admit decides one job. budget ≤ 0 means no deadline; projectedWait is the
// server's current estimate of queue wait (the batch EWMA).
// On success the job occupies one queue slot until release.
func (a *admission) admit(tenant string, budget, projectedWait time.Duration) error {
	if budget > 0 && budget < projectedWait {
		return fmt.Errorf("serve: %w (budget %v, projected %v)", ErrDeadline, budget, projectedWait)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.cfg.QueueLimit > 0 && a.queued >= a.cfg.QueueLimit {
		return fmt.Errorf("serve: %w (%d queued)", ErrQueueFull, a.queued)
	}
	if a.cfg.RatePerSec > 0 {
		b := a.buckets[tenant]
		now := a.now()
		if b == nil {
			b = &bucket{tokens: a.cfg.Burst, last: now}
			a.buckets[tenant] = b
		} else {
			b.tokens += now.Sub(b.last).Seconds() * a.cfg.RatePerSec
			if b.tokens > a.cfg.Burst {
				b.tokens = a.cfg.Burst
			}
			b.last = now
		}
		if b.tokens < 1 {
			return fmt.Errorf("serve: %w %q", ErrRateLimited, tenant)
		}
		b.tokens--
	}
	a.queued++
	return nil
}

// release frees one queue slot (the job was dispatched to a batch or
// dropped).
func (a *admission) release() {
	a.mu.Lock()
	if a.queued > 0 {
		a.queued--
	}
	a.mu.Unlock()
}

// depth reports the jobs currently occupying queue slots.
func (a *admission) depth() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queued
}
