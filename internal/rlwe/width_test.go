package rlwe

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"heap/internal/obs"
	"heap/internal/ring"
	"heap/internal/rns"
)

// widthShapes are the (Q limbs, P limbs, dnum) triples of the width tests: the
// paper's shape, one whose last digit window is short at every odd level, and
// heapd's.
var widthShapes = [][3]int{{7, 4, 2}, {6, 2, 3}, {4, 2, 2}}

// widthLevels returns the levels {1, 2, α, α+1, L} a shape has: single-limb
// windows, a full first digit, the first limb of the second, the top.
func widthLevels(p *Parameters) []int {
	var out []int
	seen := map[int]bool{}
	for _, l := range []int{1, 2, p.Alpha(), p.Alpha() + 1, p.MaxLevel()} {
		if l >= 1 && l <= p.MaxLevel() && !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

// ledger is what a width may not change: every word written and every count
// reported.
type ledger struct {
	polys    []rns.Poly
	counters [3]uint64
}

func (l *ledger) keep(ps ...rns.Poly) {
	for _, p := range ps {
		l.polys = append(l.polys, p.Copy())
	}
}

// TestWidthChangesNothingButTheClock runs every entry point of the key-switch
// body — both key switches, the external products in both output forms on
// NTT-form, coefficient-form and trivial inputs, the two-key product, the
// hoisted pair, the rotation and a repack trace step — on arenas of width 1,
// 2, 3 and 8, with the digit phase at both of its granularities (one task per
// limb, as on a ring that fans; one task for the whole basis, as below the
// minimum degree), and requires the words written and the limb-transform,
// key-switch and external-product counts to equal those of width 1 at the
// ring's own granularity. The arena's width and the key switcher's fans flag
// are set directly, so the fan-out runs on these toy rings (which the minimum
// degree would otherwise keep inline) with more goroutines than tasks, than
// limbs and than processors; under -race that is also the check that no two
// limb tasks touch the same word.
func TestWidthChangesNothingButTheClock(t *testing.T) {
	const logN = 5
	for _, shape := range widthShapes {
		p := MustParameters(logN, ring.GenerateNTTPrimes(40, logN, shape[0]), ring.GenerateNTTPrimesUp(41, logN, shape[1]), ring.DefaultSigma, shape[2])
		kg := NewKeyGenerator(p, 71)
		sk := kg.GenSecretKey(SecretTernary)
		g := p.QBasis.Rings[0].GaloisElementForRotation(1)
		gk := kg.GenGaloisKey(g, sk)
		plus, minus := kg.GenRGSWConstant(1, sk), kg.GenRGSWConstant(-1, sk)
		ks := NewKeySwitcher(p)
		rp := NewRepacker(ks, kg.GenPackingKeys(sk))
		s := ring.NewSampler(72)
		for _, level := range widthLevels(p) {
			b := p.QBasis.AtLevel(level)
			ct := randCiphertext(p, s, level) // NTT form
			coeff := coeffCopy(p, ct)
			trivial := coeff.CopyNew()
			trivial.C1.Zero()

			var want *ledger
			for _, run := range []struct {
				limbTasks bool // the digit phase's granularity: see KeySwitcher.span
				width     int
			}{{false, 1}, {false, 2}, {false, 3}, {false, 8}, {true, 1}, {true, 2}, {true, 3}, {true, 8}} {
				ks.fans = run.limbTasks
				width := run.width
				got := &ledger{}
				met := obs.NewMetrics()
				ks.SetRecorder(met)
				sc := ks.NewScratch()
				sc.width = width
				d0, d1, out := b.NewPoly(), b.NewPoly(), NewCiphertext(p, level)

				ks.SwitchPolyInto(ct.C1, gk, d0, d1, sc)
				got.keep(d0, d1)
				ks.switchPolyCoeff(coeff.C1, gk, d0, d1, sc)
				got.keep(d0, d1)
				for _, in := range []*Ciphertext{ct, coeff, trivial} {
					ks.ExternalProductInto(out, in, plus, sc)
					got.keep(out.C0, out.C1)
					productCoeff(ks, out, in, plus, sc)
					got.keep(out.C0, out.C1)
				}
				for _, in := range []*Ciphertext{coeff, trivial} {
					acc := in.CopyNew()
					ks.ExternalProductTwoKeyCoeffAddTo(acc, 5, plus, minus, sc)
					got.keep(acc.C0, acc.C1)
				}
				h := ks.NewHoisted()
				ks.DecomposeInto(h, ct.C1, sc)
				ks.ApplyGaloisHoistedInto(out, ct, h, g, gk, sc)
				got.keep(out.C0, out.C1)
				ks.AutomorphismInto(out, ct, g, gk, sc)
				got.keep(out.C0, out.C1)
				step := coeff.CopyNew()
				rp.addRotated(step, [2]rns.Poly{step.C0.Copy(), step.C1}, 3, rp.pk.Keys[3], sc)
				got.keep(step.C0, step.C1)

				ks.SetRecorder(nil)
				for i, c := range []obs.Counter{obs.CounterNTT, obs.CounterKeySwitch, obs.CounterExternalProduct} {
					got.counters[i] = met.Counter(c)
				}
				if want == nil {
					want = got
					continue
				}
				if got.counters != want.counters {
					t.Errorf("shape %v level %d width %d fans %v: counters %v, width 1 counted %v", shape, level, width, ks.fans, got.counters, want.counters)
				}
				for i := range want.polys {
					if !b.Equal(want.polys[i], got.polys[i]) {
						t.Fatalf("shape %v level %d width %d fans %v: output %d differs from width 1", shape, level, width, ks.fans, i)
					}
				}
			}
		}
	}
}

// fanFixture is a ring just large enough for the fan-out to engage through the
// public paths (N = minFanDegree), at heapd's gadget shape.
func fanFixture(t *testing.T, logN int) (*Parameters, *KeyGenerator, *SecretKey) {
	t.Helper()
	p := MustParameters(logN, ring.GenerateNTTPrimes(40, logN, 4), ring.GenerateNTTPrimesUp(41, logN, 2), ring.DefaultSigma, 2)
	kg := NewKeyGenerator(p, 81)
	return p, kg, kg.GenSecretKey(SecretTernary)
}

// waitGoroutines fails the test if the goroutine count does not come back down
// to before: a fanned call waits for the goroutines it started, so at most the
// last instructions of their exit can still be in flight when it returns.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFanOutThroughPublicPaths drives the single-stream entry points — the
// pooled rotation, relinearization and hoisted pair, the rescale, the repack
// trace — on key switchers configured for 2, 3 and 8 workers at the smallest
// ring that fans, and requires the words of a one-worker key switcher, the
// same counts, and no goroutine left behind. What the width actually is
// depends on the processors the run has (-cpu 1,2,4): 1 is the inline case.
func TestFanOutThroughPublicPaths(t *testing.T) {
	p, kg, sk := fanFixture(t, 10)
	n := p.N()
	if n != minFanDegree {
		t.Fatalf("fixture ring N=%d is not the minimum fanned degree %d", n, minFanDegree)
	}
	g := p.QBasis.Rings[0].GaloisElementForRotation(3)
	gk, rlk, pk := kg.GenGaloisKey(g, sk), kg.GenRelinearizationKey(sk), kg.GenPackingKeys(sk)
	s := ring.NewSampler(82)
	level := p.MaxLevel()
	b := p.QBasis.AtLevel(level)
	ct := randCiphertext(p, s, level)
	c2 := randCiphertext(p, s, level).C0

	run := func(workers int) *ledger {
		ks := NewKeySwitcher(p)
		ks.SetWorkers(workers)
		met := obs.NewMetrics()
		ks.SetRecorder(met)
		got := &ledger{}
		rot := ks.Automorphism(ct, g, gk)
		got.keep(rot.C0, rot.C1)
		r0, r1 := ct.C0.Copy(), ct.C1.Copy()
		ks.Relinearize(r0, r1, c2, rlk)
		got.keep(r0, r1)
		hoisted := ks.ApplyGaloisHoisted(ct, ks.Decompose(ct.C1), g, gk)
		got.keep(hoisted.C0, hoisted.C1)
		for _, in := range []*Ciphertext{ct, coeffCopy(p, ct)} {
			down := ks.DivRoundByLastModulus(in)
			if down.IsNTT != in.IsNTT || down.Level() != level-1 {
				t.Fatalf("workers %d: rescale of IsNTT=%v level %d came back IsNTT=%v level %d", workers, in.IsNTT, level, down.IsNTT, down.Level())
			}
			got.keep(down.C0, down.C1)
		}
		traced, err := NewRepacker(ks, pk).Trace(coeffCopy(p, ct), n/8)
		if err != nil {
			t.Fatal(err)
		}
		got.keep(traced.C0, traced.C1)
		for i, c := range []obs.Counter{obs.CounterNTT, obs.CounterKeySwitch, obs.CounterExternalProduct} {
			got.counters[i] = met.Counter(c)
		}
		return got
	}
	want := run(1)
	before := runtime.NumGoroutine()
	for _, workers := range []int{2, 3, 8} {
		got := run(workers)
		if got.counters != want.counters {
			t.Errorf("workers %d: counters %v, one worker counted %v", workers, got.counters, want.counters)
		}
		for i := range want.polys {
			if !b.Equal(want.polys[i], got.polys[i]) {
				t.Fatalf("workers %d: output %d differs from one worker's", workers, i)
			}
		}
	}
	waitGoroutines(t, before)
}

// TestFanRunsInlineWhenItCannotPay pins the two cases in which a configured
// width is not used — a ring under the minimum degree, and a single processor —
// by what the tasks see while they run: no goroutine beside the caller's. The
// control runs the same probe where the fan-out must engage, and there the two
// tasks meet, which they could not do inline.
func TestFanRunsInlineWhenItCannotPay(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	// probe runs two tasks that each wait (bounded) for the other to have
	// started, and reports whether they met and the most goroutines seen.
	probe := func(ks *KeySwitcher) (met bool, extra int) {
		before := runtime.NumGoroutine()
		var started, peak atomic.Int32
		ks.Fan(2, func(int) {
			started.Add(1)
			for deadline := time.Now().Add(200 * time.Millisecond); started.Load() < 2 && time.Now().Before(deadline); {
				runtime.Gosched()
			}
			if n := int32(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
		})
		waitGoroutines(t, before)
		return started.Load() == 2 && int(peak.Load()) > before, int(peak.Load()) - before
	}
	inline := func(name string, ks *KeySwitcher) {
		t.Helper()
		if w := ks.width(); w != 1 {
			t.Errorf("%s: width %d, want 1", name, w)
		}
		sc := ks.getScratch()
		if sc.width != 1 {
			t.Errorf("%s: pooled arena has width %d, want 1", name, sc.width)
		}
		ks.putScratch(sc)
		if met, extra := probe(ks); met || extra > 0 {
			t.Errorf("%s: tasks ran beside %d extra goroutine(s) (met=%v), want inline", name, extra, met)
		}
	}

	small, _, _ := fanFixture(t, 9)
	big, _, _ := fanFixture(t, 10)
	runtime.GOMAXPROCS(4)
	ks := NewKeySwitcher(small)
	ks.SetWorkers(4)
	inline("ring under the minimum degree", ks)

	ks = NewKeySwitcher(big)
	inline("default workers", ks)
	ks.SetWorkers(4)
	if sc := ks.NewScratch(); sc.width != 1 {
		t.Errorf("caller-made arena has width %d, want 1 whatever the key switcher's", sc.width)
	}
	if met, _ := probe(ks); !met {
		t.Errorf("N=%d, 4 workers, 4 processors: the two tasks never ran side by side", big.N())
	}
	if w := ks.width(); w != 4 {
		t.Errorf("N=%d, 4 workers, 4 processors: width %d, want 4", big.N(), w)
	}
	runtime.GOMAXPROCS(2)
	if w := ks.width(); w != 2 {
		t.Errorf("4 workers on 2 processors: width %d, want 2", w)
	}
	runtime.GOMAXPROCS(1)
	inline("one processor", ks)
}

// BenchmarkFanBreakEven is the measurement behind minFanDegree and the
// ceiling quoted beside it (DESIGN.md "Limb-level fan-out"): one rotation at
// level 6 of the paper's gadget shape (Q7+P4, dnum 2) per ring degree, on an
// arena of width 1 and of width 2 (set directly, so the rings under the
// minimum degree fan too), and — "streams=2" — two independent width-1
// rotations side by side, whose per-rotation time against width=1 is what
// this host's second processor is worth to any schedule.
//
//	go test -run '^$' -bench FanBreakEven -benchtime 200x ./internal/rlwe/
func BenchmarkFanBreakEven(b *testing.B) {
	for logN := 8; logN <= 13; logN++ {
		p := MustParameters(logN, ring.GenerateNTTPrimes(36, logN, 7), ring.GenerateNTTPrimesUp(37, logN, 4), ring.DefaultSigma, 2)
		kg := NewKeyGenerator(p, 91)
		sk := kg.GenSecretKey(SecretTernary)
		g := p.QBasis.Rings[0].GaloisElementForRotation(1)
		gk := kg.GenGaloisKey(g, sk)
		ks := NewKeySwitcher(p)
		const level = 6
		ct := randCiphertext(p, ring.NewSampler(92), level)
		rotate := func(width, n int) {
			sc, out := ks.NewScratch(), NewCiphertext(p, level)
			sc.width = width
			for i := 0; i < n; i++ {
				ks.AutomorphismInto(out, ct, g, gk, sc)
			}
		}
		for _, width := range []int{1, 2} {
			b.Run(fmt.Sprintf("N=2^%d/width=%d", logN, width), func(b *testing.B) { rotate(width, b.N) })
		}
		b.Run(fmt.Sprintf("N=2^%d/streams=2", logN), func(b *testing.B) {
			done := make(chan struct{})
			go func() { rotate(1, b.N); close(done) }()
			rotate(1, b.N)
			<-done
		})
	}
}

// TestFanLanesAreExclusive runs fan directly at widths 1, 2, 3 and 8 over
// fewer, as many and more tasks than goroutines, and requires every index to
// run exactly once, every lane to be below the width, and no lane to be
// entered by a second goroutine while one is inside it — the property that
// lets a task use its lane's scratch without a lock.
func TestFanLanesAreExclusive(t *testing.T) {
	for _, width := range []int{1, 2, 3, 8} {
		for _, n := range []int{1, 2, 7, 64} {
			runs := make([]atomic.Int32, n)
			busy := make([]atomic.Bool, width)
			var badLane, overlap atomic.Int32
			fan(width, n, func(w, i int) {
				if w < 0 || w >= width {
					badLane.Add(1)
					runs[i].Add(1)
					return
				}
				if !busy[w].CompareAndSwap(false, true) {
					overlap.Add(1)
				}
				runs[i].Add(1)
				runtime.Gosched()
				busy[w].Store(false)
			})
			if c := badLane.Load(); c > 0 {
				t.Errorf("width %d, %d tasks: %d task(s) ran on a lane outside [0, %d)", width, n, c, width)
			}
			if c := overlap.Load(); c > 0 {
				t.Errorf("width %d, %d tasks: a lane was entered %d time(s) while busy", width, n, c)
			}
			for i := range runs {
				if c := runs[i].Load(); c != 1 {
					t.Errorf("width %d, %d tasks: index %d ran %d times", width, n, i, c)
				}
			}
		}
	}
}

// TestFanRepanicsOnTheCaller makes the tasks of a width-2 fan's second lane
// panic, once both lanes have started, and requires the caller's recover to
// see that value, every goroutine the call started to be gone, and the next
// fan to run all of its tasks.
func TestFanRepanicsOnTheCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	before := runtime.NumGoroutine()
	type boom struct{ lane int }
	got := func() (r any) {
		defer func() { r = recover() }()
		var started [2]atomic.Bool
		fan(2, 16, func(w, _ int) {
			started[w].Store(true)
			for deadline := time.Now().Add(5 * time.Second); !(started[0].Load() && started[1].Load()) && time.Now().Before(deadline); {
				runtime.Gosched()
			}
			if w == 1 {
				panic(boom{w})
			}
		})
		return nil
	}()
	if got != (boom{1}) {
		t.Fatalf("caller recovered %v, want %v", got, boom{1})
	}
	waitGoroutines(t, before)
	var ran atomic.Int32
	fan(2, 16, func(int, int) { ran.Add(1) })
	if ran.Load() != 16 {
		t.Fatalf("the fan after a panic ran %d of 16 tasks", ran.Load())
	}
}

// BenchmarkFanHandOff is one phase of n limb transforms at N = 2¹³ — the
// unit a key switch is made of — on the caller alone (width 1) and handed to
// two goroutines (width 2): at width 2 the time above half of width 1's is
// what one hand-off and its barrier cost.
//
//	go test -run '^$' -bench FanHandOff -benchtime 2000x ./internal/rlwe/
func BenchmarkFanHandOff(b *testing.B) {
	const logN = 13
	qs := ring.GenerateNTTPrimes(36, logN, 11)
	for _, n := range []int{2, 7, 11} {
		rings := make([]*ring.Ring, n)
		src, dst := make([]ring.Poly, n), make([]ring.Poly, n)
		for i := range rings {
			rings[i] = ring.NewRing(logN, qs[i])
			src[i], dst[i] = rings[i].NewPoly(), rings[i].NewPoly()
			for j := range src[i] {
				src[i][j] = uint64(j*7+i) % qs[i]
			}
		}
		for _, width := range []int{1, 2} {
			b.Run(fmt.Sprintf("limbs=%d/width=%d", n, width), func(b *testing.B) {
				for k := 0; k < b.N; k++ {
					fan(width, n, func(_, i int) { rings[i].NTTInto(dst[i], src[i]) })
				}
			})
		}
	}
}

// switchPolyCoeff is SwitchPolyInto with input and both outputs in
// coefficient representation: the decomposition takes cCoeff as it stands
// (no copy, no INTT) and each linear ModDown emits coefficients,
// bit-identical to the INTT of SwitchPolyInto's outputs on NTT(cCoeff).
func (ks *KeySwitcher) switchPolyCoeff(cCoeff rns.Poly, gct *GadgetCiphertext, d0, d1 rns.Poly, sc *Scratch) {
	ks.switchPoly(cCoeff, false, gct, d0, d1, overwrite, sc)
}
