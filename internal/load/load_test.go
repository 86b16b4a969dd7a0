package load

import (
	"math/rand"
	"testing"
	"time"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestScheduleDeterministic: the open-loop schedule is a pure function of
// the seed — identical across runs, different across seeds, monotonic in
// time, and every field inside its configured range.
func TestScheduleDeterministic(t *testing.T) {
	base := Config{
		Jobs:        200,
		OfferedRate: 500,
		Tenants:     4,
	}
	for _, p := range Patterns() {
		cfg := base
		cfg.Pattern = p
		if err := cfg.defaults(); err != nil {
			t.Fatal(err)
		}
		a, err := schedule(&cfg, newRand(7))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		b, err := schedule(&cfg, newRand(7))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(a) != cfg.Jobs {
			t.Fatalf("%s: %d events, want %d", p, len(a), cfg.Jobs)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: event %d differs across same-seed runs: %+v vs %+v", p, i, a[i], b[i])
			}
			if i > 0 && a[i].at < a[i-1].at {
				t.Fatalf("%s: schedule not monotonic at %d: %v after %v", p, i, a[i].at, a[i-1].at)
			}
			ev := a[i]
			if ev.tenant < 0 || ev.tenant >= cfg.Tenants ||
				ev.conn < 0 || ev.conn >= cfg.ConnsPerTenant ||
				ev.payload < 0 || ev.payload >= cfg.PayloadPool {
				t.Fatalf("%s: event %d out of range: %+v", p, i, ev)
			}
		}
		c, err := schedule(&cfg, newRand(8))
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%s: seeds 7 and 8 produced identical schedules", p)
		}
	}
}

// TestScheduleHotKeySkew: the Zipf tenant choice concentrates load — tenant
// 0 must carry at least triple its uniform fair share of a hot-key
// schedule over 8 tenants, and strictly dominate tenant 1.
func TestScheduleHotKeySkew(t *testing.T) {
	cfg := Config{Jobs: 2000, OfferedRate: 1000, Tenants: 8, Pattern: HotKey}
	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	evs, err := schedule(&cfg, newRand(42))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, cfg.Tenants)
	for _, ev := range evs {
		counts[ev.tenant]++
	}
	if fair := len(evs) / cfg.Tenants; counts[0] < 3*fair {
		t.Fatalf("hot tenant got %d/%d jobs, want ≥ 3× the fair share %d: %v", counts[0], len(evs), fair, counts)
	}
	if counts[0] <= counts[1] {
		t.Fatalf("tenant 0 (%d) does not dominate tenant 1 (%d): %v", counts[0], counts[1], counts)
	}
}

// TestScheduleBurstyGating: every bursty arrival lands inside an on-window,
// and the schedule actually uses more than one burst cycle.
func TestScheduleBurstyGating(t *testing.T) {
	cfg := Config{
		Jobs:        300,
		OfferedRate: 2000,
		Tenants:     2,
		Pattern:     Bursty,
		BurstLen:    10 * time.Millisecond,
		GapLen:      30 * time.Millisecond,
	}
	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	evs, err := schedule(&cfg, newRand(3))
	if err != nil {
		t.Fatal(err)
	}
	period := cfg.BurstLen + cfg.GapLen
	cycles := map[int64]bool{}
	for i, ev := range evs {
		if phase := ev.at % period; phase >= cfg.BurstLen {
			t.Fatalf("event %d at %v falls in the gap (phase %v)", i, ev.at, phase)
		}
		cycles[int64(ev.at/period)] = true
	}
	if len(cycles) < 2 {
		t.Fatalf("all %d arrivals in %d burst cycle(s); gating untested", len(evs), len(cycles))
	}
}

// TestClockVirtualTime: the virtual clock only moves on Advance and is
// identical across runs.
func TestClockVirtualTime(t *testing.T) {
	a, b := NewClock(), NewClock()
	if !a.Now().Equal(b.Now()) {
		t.Fatalf("two fresh clocks disagree: %v vs %v", a.Now(), b.Now())
	}
	t0 := a.Now()
	a.Advance(3 * time.Second)
	if got := a.Now().Sub(t0); got != 3*time.Second {
		t.Fatalf("Advance moved clock by %v, want 3s", got)
	}
	if !b.Now().Equal(t0) {
		t.Fatal("advancing one clock moved another")
	}
}

// TestClosedLoopServesEverything: a closed-loop run with no admission
// limits serves every issued job, bit-exact against the tenants' local
// blind rotations, with a consistent server-side ledger.
func TestClosedLoopServesEverything(t *testing.T) {
	res, err := Run(Config{
		Tenants:        2,
		ConnsPerTenant: 2,
		Jobs:           12,
		RotsPerJob:     2,
		PayloadPool:    2,
		Seed:           11,
		Verify:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != res.Issued || res.Rejected != 0 || res.Failed != 0 {
		t.Fatalf("served %d rejected %d failed %d of %d issued", res.Served, res.Rejected, res.Failed, res.Issued)
	}
	if !res.ClosedLoop {
		t.Fatal("closed-loop run not flagged as such")
	}
	if gap := res.LedgerGap(); gap != 0 {
		t.Fatalf("ledger gap %d: admitted %d served %d expired %d failed %d",
			gap, res.Admitted, res.SrvServed, res.Expired, res.SrvFailed)
	}
	if res.Latency.Count != uint64(res.Served) {
		t.Fatalf("histogram holds %d observations, served %d", res.Latency.Count, res.Served)
	}
	if res.AchievedPerSec <= 0 || res.Latency.P50Ms <= 0 {
		t.Fatalf("degenerate metrics: %+v", res)
	}
}

// TestOpenLoopUniform: an open-loop run at a modest offered rate completes
// every scheduled arrival (served; nothing rejected with no admission
// limits, nothing failed) and reports the offered rate it was asked for.
func TestOpenLoopUniform(t *testing.T) {
	res, err := Run(Config{
		Tenants:        2,
		ConnsPerTenant: 2,
		Jobs:           16,
		RotsPerJob:     2,
		PayloadPool:    2,
		OfferedRate:    200,
		Pattern:        Uniform,
		Seed:           5,
		Verify:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ClosedLoop {
		t.Fatal("open-loop run flagged closed")
	}
	if res.Served+res.Rejected+res.Failed != res.Issued {
		t.Fatalf("outcomes %d+%d+%d don't cover %d issued", res.Served, res.Rejected, res.Failed, res.Issued)
	}
	if res.Failed != 0 {
		t.Fatalf("%d jobs failed fatally", res.Failed)
	}
	if res.Served != res.Issued {
		t.Fatalf("served %d of %d with no admission limits", res.Served, res.Issued)
	}
	if gap := res.LedgerGap(); gap != 0 {
		t.Fatalf("ledger gap %d", gap)
	}
}

// TestHarnessReuseAcrossPoints: RunPoint on a shared harness isolates each
// point's counter deltas, so a sweep over one fleet reports per-point
// ledgers.
func TestHarnessReuseAcrossPoints(t *testing.T) {
	h, err := NewHarness(Config{
		Tenants:        1,
		ConnsPerTenant: 2,
		Jobs:           6,
		RotsPerJob:     2,
		PayloadPool:    2,
		Seed:           13,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for i := 0; i < 2; i++ {
		res, err := h.RunPoint()
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		if res.Served != res.Issued {
			t.Fatalf("point %d: served %d of %d", i, res.Served, res.Issued)
		}
		if res.Admitted != uint64(res.Issued) {
			t.Fatalf("point %d: admitted delta %d, want %d (counter deltas leaked across points)",
				i, res.Admitted, res.Issued)
		}
		if gap := res.LedgerGap(); gap != 0 {
			t.Fatalf("point %d: ledger gap %d", i, gap)
		}
	}
}

// TestHarnessTCP: the same fleet drives over real loopback TCP.
func TestHarnessTCP(t *testing.T) {
	res, err := Run(Config{
		Tenants:        1,
		ConnsPerTenant: 2,
		Jobs:           6,
		RotsPerJob:     2,
		PayloadPool:    2,
		Seed:           17,
		TCP:            true,
		Verify:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != res.Issued {
		t.Fatalf("served %d of %d over TCP", res.Served, res.Issued)
	}
}
