package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Hist is a fixed-footprint concurrent latency histogram: lock-free
// log-linear buckets over [1µs, ~1h], the shape HdrHistogram popularized and
// the serving layer's per-job latency distributions need — a load run
// records hundreds of thousands of observations from many goroutines, so the
// sorted-slice percentile the first service benchmark used (every latency
// retained, one big sort at the end) does not scale to a sweep matrix.
//
// Buckets: histSubBuckets linear sub-buckets per power-of-two decade.
// Observations below 1µs land in bucket 0; observations beyond the top
// decade clamp into the last bucket (and are tracked exactly by maxNs, so a
// clamped p100 still reports the true maximum).
type Hist struct {
	counts [histBuckets]atomic.Uint64
	total  atomic.Uint64
	sumNs  atomic.Int64
	maxNs  atomic.Int64
}

const (
	histMinNs      = int64(time.Microsecond) // resolution floor: 1µs
	histDecades    = 32                      // 1µs << 32 ≈ 1.2h ceiling
	histSubBits    = 5
	histSubBuckets = 1 << histSubBits // 32 sub-buckets: ≤ ~3.1% quantile error
	histBuckets    = histDecades * histSubBuckets
)

// histIndex maps a duration to its bucket: the first decade is exactly
// linear in µs; above it, the decade is the position of the value's top bit
// and the sub-bucket the histSubBits bits below it.
func histIndex(d time.Duration) int {
	v := int64(d) / histMinNs
	if v < histSubBuckets {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	msb := bits.Len64(uint64(v)) - 1
	decade := msb - histSubBits + 1
	sub := (v >> uint(decade-1)) & (histSubBuckets - 1)
	idx := decade*histSubBuckets + int(sub)
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// histLower returns the inclusive lower bound (in ns) of bucket idx — the
// value Quantile reports for observations that landed in it.
func histLower(idx int) int64 {
	decade := idx / histSubBuckets
	sub := int64(idx % histSubBuckets)
	if decade == 0 {
		return sub * histMinNs
	}
	return ((int64(histSubBuckets) + sub) << uint(decade-1)) * histMinNs
}

// Observe records one latency. Safe for concurrent use; never allocates.
func (h *Hist) Observe(d time.Duration) {
	h.counts[histIndex(d)].Add(1)
	h.total.Add(1)
	h.sumNs.Add(int64(d))
	for {
		cur := h.maxNs.Load()
		if int64(d) <= cur || h.maxNs.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 { return h.total.Load() }

// Mean returns the mean observed latency (0 when empty).
func (h *Hist) Mean() time.Duration {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumNs.Load() / int64(n))
}

// Max returns the exact maximum observed latency.
func (h *Hist) Max() time.Duration { return time.Duration(h.maxNs.Load()) }

// Quantile returns the latency at quantile q in [0,1] using the
// nearest-rank definition over the bucketed counts (bucket lower bound, so
// the estimate never overstates; error is bounded by the ~3.1% bucket
// width). q ≥ 1 returns the exact maximum. Returns 0 when empty.
//
// Concurrent Observes during a Quantile read are safe; the answer is
// consistent with some interleaving of them.
func (h *Hist) Quantile(q float64) time.Duration {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	if q >= 1 {
		return h.Max()
	}
	if q < 0 {
		q = 0
	}
	// Nearest rank: the smallest k with cumulative ≥ ceil(q·n), matching the
	// (n*99+99)/100-1 indexing the service benchmark established.
	rank := uint64(math.Ceil(q * float64(n)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			return time.Duration(histLower(i))
		}
	}
	return h.Max()
}

// HistSnapshot is the JSON-marshalable summary of a histogram.
type HistSnapshot struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Summary snapshots the standard percentile set.
func (h *Hist) Summary() HistSnapshot {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	return HistSnapshot{
		Count:  h.Count(),
		MeanMs: ms(h.Mean()),
		P50Ms:  ms(h.Quantile(0.50)),
		P95Ms:  ms(h.Quantile(0.95)),
		P99Ms:  ms(h.Quantile(0.99)),
		MaxMs:  ms(h.Max()),
	}
}
