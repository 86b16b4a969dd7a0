package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestHistBucketBoundsConsistent: histLower(histIndex(d)) ≤ d for every
// representable duration, and the relative error of the bucket lower bound
// is within the 1/histSubBuckets design bound (plus the 1µs floor).
func TestHistBucketBoundsConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		var d time.Duration
		switch i % 3 {
		case 0:
			d = time.Duration(r.Int63n(int64(time.Millisecond)))
		case 1:
			d = time.Duration(r.Int63n(int64(time.Hour)))
		default:
			d = time.Duration(r.Int63n(int64(100 * time.Hour)))
		}
		idx := histIndex(d)
		lo := histLower(idx)
		if lo > int64(d) {
			t.Fatalf("histLower(%d) = %d > observation %d", idx, lo, int64(d))
		}
		if idx+1 < histBuckets {
			hi := histLower(idx + 1)
			if hi <= lo {
				t.Fatalf("bucket %d not monotonic: [%d, %d)", idx, lo, hi)
			}
			if int64(d) >= hi {
				t.Fatalf("observation %d landed in bucket %d = [%d, %d)", int64(d), idx, lo, hi)
			}
			// Bucket width bound: above the linear decade, width/lower ≤ 1/32.
			if lo >= histSubBuckets*histMinNs && float64(hi-lo)/float64(lo) > 1.0/histSubBuckets+1e-9 {
				t.Fatalf("bucket %d too wide: [%d, %d)", idx, lo, hi)
			}
		}
	}
}

// TestHistQuantilesMatchSortedReference: against an exact sorted-slice
// percentile, the histogram's nearest-rank quantile is within one bucket
// width (≤ ~3.2% relative, plus the 1µs resolution floor).
func TestHistQuantilesMatchSortedReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	h := &Hist{}
	lats := make([]time.Duration, 50000)
	for i := range lats {
		// Log-uniform over [10µs, 10s]: exercises many decades.
		e := r.Float64() * 6
		d := time.Duration(float64(10*time.Microsecond) * math.Pow(10, e))
		lats[i] = d
		h.Observe(d)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	n := len(lats)
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		rank := int(q*float64(n)+0.999999) - 1
		if rank < 0 {
			rank = 0
		}
		want := lats[rank]
		got := h.Quantile(q)
		if got > want {
			t.Fatalf("q%.3f: hist %v > exact %v (lower bound must not overstate)", q, got, want)
		}
		if rel := float64(want-got) / float64(want); rel > 0.04 {
			t.Fatalf("q%.3f: hist %v vs exact %v (rel err %.3f > bucket bound)", q, got, want, rel)
		}
	}
	if h.Quantile(1) != h.Max() {
		t.Fatalf("q1 = %v, want exact max %v", h.Quantile(1), h.Max())
	}
	if h.Count() != uint64(n) {
		t.Fatalf("count = %d, want %d", h.Count(), n)
	}
}

// TestHistEmptyAndEdge: zero observations, zero/negative durations, and the
// clamp decade all behave.
func TestHistEmptyAndEdge(t *testing.T) {
	h := &Hist{}
	if h.Quantile(0.99) != 0 || h.Count() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Observe(0)
	h.Observe(-time.Second) // defensive: clamps to bucket 0
	h.Observe(200 * time.Hour)
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 200*time.Hour {
		t.Fatalf("max = %v", h.Max())
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("median of {≤0, ≤0, clamp} = %v, want 0", got)
	}
	if h.Quantile(1) != 200*time.Hour {
		t.Fatalf("q1 must report the exact max, got %v", h.Quantile(1))
	}
}

// TestHistConcurrentObserve: hammer from many goroutines under -race; the
// total count and sum must be exact.
func TestHistConcurrentObserve(t *testing.T) {
	h := &Hist{}
	const workers = 8
	const per = 20000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(r.Int63n(int64(time.Second))))
				if i%1024 == 0 {
					_ = h.Quantile(0.99) // concurrent reads are legal
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	s := h.Summary()
	if s.Count != workers*per || s.P99Ms < s.P50Ms || s.MaxMs < s.P99Ms {
		t.Fatalf("summary not monotonic: %+v", s)
	}
}
