package ring

import (
	"math/bits"
	"math/rand"
	"sync"
	"testing"
)

// simdPrimes is the kernel-equivalence basis plus a 61-bit boundary modulus:
// the vector kernels' signed-compare argument (every compared value < 2^63
// because q < 2^61) is tightest there, so the top of the supported range must
// be in every bit-identity sweep.
func simdPrimes(t testing.TB) []uint64 {
	t.Helper()
	return append(paramsPrimes(t), GenerateNTTPrimes(61, 12, 1)[0])
}

// withVector enables the vector kernels for the duration of the test,
// restoring the prior dispatch state afterwards, and skips when the build or
// host has no vector path (purego tag, non-amd64, AVX2 absent).
func withVector(t *testing.T) {
	t.Helper()
	prev := simdActive()
	if !SetSIMD(true) {
		SetSIMD(prev)
		t.Skip("vector kernels unavailable on this build/host")
	}
	t.Cleanup(func() { SetSIMD(prev) })
}

// nttFwdStepScalar runs one forward Cooley-Tukey stage (m blocks of half
// length t) with Shoup-twiddle butterflies exactly as nttWithTables' inline
// loop does — the lane-for-lane reference for nttFwdStepAVX2 (t ≥ 4),
// nttFwdT2AVX2 (t = 2) and, through nttFwdLastRef, nttFwdLastAVX2 (t = 1).
func nttFwdStepScalar(p Poly, psi, psiShoup []uint64, q uint64, m, t int) {
	twoQ := 2 * q
	for i := 0; i < m; i++ {
		w := psi[m+i]
		wS := psiShoup[m+i]
		j1 := 2 * i * t
		a := p[j1 : j1+t]
		b := p[j1+t : j1+2*t]
		b = b[:len(a)] // bounds-check elimination for b[j]
		for j := range a {
			// u ∈ [0, 4q) → [0, 2q); v ← lazy Shoup ∈ [0, 2q).
			u := a[j]
			if u >= twoQ {
				u -= twoQ
			}
			v := b[j]
			hi, _ := bits.Mul64(v, wS)
			v = v*w - hi*q
			a[j] = u + v        // < 4q
			b[j] = u + twoQ - v // < 4q
		}
	}
}

// nttInvStepScalar runs one inverse Gentleman-Sande stage (h blocks of half
// length t) exactly as INTT's inline loops do — the lane-for-lane reference
// for nttInvStepAVX2 (t ≥ 4), nttInvT2AVX2 (t = 2) and nttInvFirstAVX2
// (t = 1).
func nttInvStepScalar(p Poly, psiInv, psiInvShoup []uint64, q uint64, h, t int) {
	twoQ := 2 * q
	j1 := 0
	for i := 0; i < h; i++ {
		w := psiInv[h+i]
		wS := psiInvShoup[h+i]
		a := p[j1 : j1+t]
		b := p[j1+t : j1+2*t]
		for j := range a {
			u := a[j]
			v := b[j]
			c := u + v // < 4q
			if c >= twoQ {
				c -= twoQ
			}
			a[j] = c
			d := u + twoQ - v // < 4q
			hi, _ := bits.Mul64(d, wS)
			b[j] = d*w - hi*q // lazy Shoup ∈ [0, 2q)
		}
		j1 += 2 * t
	}
}

// nttFwdLastRef is the reference for nttFwdLastAVX2 and nttFwdLastScalar:
// the generic t=1 stage, the fold from [0, 4q) to [0, 2q), then the fold to
// [0, q) as separate sweeps — the unfused order the fused last stages are
// defined to equal.
func nttFwdLastRef(p Poly, psi, psiShoup []uint64, q uint64) {
	nttFwdStepScalar(p, psi, psiShoup, q, len(p)>>1, 1)
	for i, c := range p {
		if c >= 2*q {
			c -= 2 * q
		}
		if c >= q {
			c -= q
		}
		p[i] = c
	}
}

// lazyFill writes values in [0, bound) with the interval boundaries planted
// in the first slots (bound-1, bound-2, 0, 1, ...) so every run exercises the
// exact edges of the lazy-reduction intervals, then random values.
func lazyFill(rng *rand.Rand, p []uint64, bound uint64) {
	edges := []uint64{bound - 1, bound - 2, 0, 1, bound / 2, bound/2 + 1}
	for i := range p {
		if i < len(edges) {
			p[i] = edges[i] % bound
		} else {
			p[i] = rng.Uint64() % bound
		}
	}
}

// sweepLens covers the tail machinery: below one vector width, exactly one
// width, width±1, and larger mixed cases.
var sweepLens = []int{1, 2, 3, 4, 5, 7, 8, 12, 33, 64, 100}

// TestVectorSweepKernelsMatchScalar is the bit-identity property test for the
// coefficient-sweep kernels: every dispatched entry point is run once with
// the vector path and once with the scalar path on identical inputs —
// including aliased out == a — and the outputs must agree byte for byte.
func TestVectorSweepKernelsMatchScalar(t *testing.T) {
	withVector(t)
	rng := rand.New(rand.NewSource(101))
	for _, q := range simdPrimes(t) {
		r := &Ring{Mod: NewModulus(q)}
		mod := r.Mod
		w := rng.Uint64() % q
		wShoup := mod.ShoupPrecomp(w)
		cases := []struct {
			name string
			// bound on a/b inputs; out starts canonical where the kernel reads it.
			aBound uint64
			run    func(a, b, out Poly)
		}{
			{"Add", q, func(a, b, out Poly) { r.Add(a, b, out) }},
			{"Sub", q, func(a, b, out Poly) { r.Sub(a, b, out) }},
			{"MulCoeffs", q, func(a, b, out Poly) { r.MulCoeffs(a, b, out) }},
			{"MulCoeffsAndAdd", q, func(a, b, out Poly) { r.MulCoeffsAndAdd(a, b, out) }},
			// MulScalar's kernel is documented for any operand < 2^63; the
			// INTT feeds it lazy values, so test the [0, 2q) domain.
			{"MulScalar", 2 * q, func(a, b, out Poly) { r.MulScalar(a, w, out) }},
			{"MACShoupVec", q, func(a, b, out Poly) { mod.MACShoupVec(a, out, w, wShoup) }},
		}
		for _, tc := range cases {
			for _, n := range sweepLens {
				a := make(Poly, n)
				b := make(Poly, n)
				out0 := make(Poly, n)
				lazyFill(rng, a, tc.aBound)
				lazyFill(rng, b, q)
				lazyFill(rng, out0, q)

				want := out0.Copy()
				SetSIMD(false)
				tc.run(a.Copy(), b, want)
				SetSIMD(true)
				got := out0.Copy()
				tc.run(a.Copy(), b, got)
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("q=%d %s n=%d: vector[%d]=%d scalar=%d", q, tc.name, n, i, got[i], want[i])
					}
				}

				// Aliased: out == a (in place), both paths.
				SetSIMD(false)
				aw := a.Copy()
				tc.run(aw, b, aw)
				SetSIMD(true)
				ag := a.Copy()
				tc.run(ag, b, ag)
				for i := range aw {
					if aw[i] != ag[i] {
						t.Fatalf("q=%d %s n=%d aliased: vector[%d]=%d scalar=%d", q, tc.name, n, i, ag[i], aw[i])
					}
				}
			}
		}
	}
}

// edgePark fills p with a mix of random values in [0, bound) and the
// lazy-interval edges 0, q-1, q, 2q-1, 2q, 4q-1 (those below bound), placed
// at random so every lane and both butterfly sides meet every edge.
func edgePark(rng *rand.Rand, p []uint64, q, bound uint64) {
	edges := []uint64{0, q - 1, q, 2*q - 1, 2 * q, 4*q - 1}
	for i := range p {
		if e := edges[rng.Intn(len(edges))]; rng.Intn(2) == 0 && e < bound {
			p[i] = e
		} else {
			p[i] = rng.Uint64() % bound
		}
	}
}

// TestVectorNTTStageKernelsMatchScalar compares each AVX2 butterfly stage
// kernel directly against its scalar reference, on inputs planted at the
// extreme edges of the Harvey lazy intervals ([0, 4q) into a forward stage,
// [0, 2q) into an inverse stage) — the adversarial domain where a reduction
// that diverges from the scalar order would show. Every stage of a
// transform is covered: the generic kernels for t ≥ 4, the t=2 kernels, and
// the t=1 kernels.
func TestVectorNTTStageKernelsMatchScalar(t *testing.T) {
	withVector(t)
	rng := rand.New(rand.NewSource(202))
	mustEqual := func(q uint64, n int, what string, ps, pv Poly) {
		t.Helper()
		for i := range ps {
			if ps[i] != pv[i] {
				t.Fatalf("q=%d n=%d %s: vector[%d]=%d scalar=%d", q, n, what, i, pv[i], ps[i])
			}
		}
	}
	for _, q := range simdPrimes(t) {
		mod := NewModulus(q)
		for _, n := range []int{8, 16, 32, 256} {
			// Random canonical twiddle-like tables: the stage kernels do not
			// require genuine roots of unity, only w < q with consistent
			// Shoup companions. The extreme twiddles 0 and q-1 are planted
			// where the edge stages read them.
			psi := make([]uint64, n)
			psiShoup := make([]uint64, n)
			for i := range psi {
				psi[i] = rng.Uint64() % q
			}
			psi[n/4], psi[n/2], psi[n-1] = 0, q-1, q-1
			for i := range psi {
				psiShoup[i] = mod.ShoupPrecomp(psi[i])
			}
			lazy := func(bound uint64) Poly {
				p := make(Poly, n)
				edgePark(rng, p, q, bound)
				return p
			}

			// Forward stages: every (m, t) with t >= 4.
			st := n
			for m := 1; m <= n>>3; m <<= 1 {
				st >>= 1
				p := make(Poly, n)
				lazyFill(rng, p, 4*q)
				ps, pv := p.Copy(), p.Copy()
				nttFwdStepScalar(ps, psi, psiShoup, q, m, st)
				nttFwdStepAVX2(pv, psi, psiShoup, q, m, st)
				mustEqual(q, n, "fwd step", ps, pv)
			}
			// Forward edge stages, several draws each.
			for rep := 0; rep < 4; rep++ {
				p := lazy(4 * q)
				ps, pv := p.Copy(), p.Copy()
				nttFwdStepScalar(ps, psi, psiShoup, q, n>>2, 2)
				nttFwdT2AVX2(pv, psi, psiShoup, q)
				mustEqual(q, n, "fwd t=2", ps, pv)
				ps, pv = p.Copy(), p.Copy()
				nttFwdLastRef(ps, psi, psiShoup, q)
				nttFwdLastAVX2(pv, psi, psiShoup, q)
				mustEqual(q, n, "fwd last", ps, pv)
				pv = p.Copy()
				nttFwdLastScalar(pv, psi, psiShoup, q)
				mustEqual(q, n, "fwd last scalar helper", ps, pv)
			}

			// Inverse stages: every (h, t) with t >= 4, then the edge stages.
			it := 4
			for h := n >> 3; h >= 1; h >>= 1 {
				p := make(Poly, n)
				lazyFill(rng, p, 2*q)
				ps, pv := p.Copy(), p.Copy()
				nttInvStepScalar(ps, psi, psiShoup, q, h, it)
				nttInvStepAVX2(pv, psi, psiShoup, q, h, it)
				mustEqual(q, n, "inv step", ps, pv)
				it <<= 1
			}
			for rep := 0; rep < 4; rep++ {
				p := lazy(2 * q)
				ps, pv := p.Copy(), p.Copy()
				nttInvStepScalar(ps, psi, psiShoup, q, n>>1, 1)
				nttInvFirstAVX2(pv, psi, psiShoup, q)
				mustEqual(q, n, "inv t=1", ps, pv)
				ps, pv = p.Copy(), p.Copy()
				nttInvStepScalar(ps, psi, psiShoup, q, n>>2, 2)
				nttInvT2AVX2(pv, psi, psiShoup, q)
				mustEqual(q, n, "inv t=2", ps, pv)
			}
		}
	}
}

// TestVectorTransformsMatchScalar runs every public transform with the vector
// path on and off and requires byte-identical results — the whole-transform
// closure of the per-stage identity above, across ring degrees (a degree
// below vecMinN, which stays on the scalar driver; vecMinN itself, where the
// two edge kernels and one generic stage make the whole transform) and an
// extra 61-bit boundary-modulus ring.
func TestVectorTransformsMatchScalar(t *testing.T) {
	withVector(t)
	rings := testRings(t)
	rings = append(rings, NewRing(2, 17), NewRing(12, GenerateNTTPrimes(61, 12, 1)[0]))
	for _, r := range rings {
		s := NewSampler(303)
		p := r.NewPoly()
		s.UniformPoly(r, p)
		sc := NewTwiddleScratch(r.N)
		cases := []struct {
			name string
			f    func(Poly)
		}{
			{"NTT", r.NTT},
			{"INTT", r.INTT},
			{"NTTOnTheFly", func(q Poly) { r.NTTOnTheFlyWith(q, sc) }},
		}
		for _, tc := range cases {
			SetSIMD(false)
			want := p.Copy()
			tc.f(want)
			SetSIMD(true)
			got := p.Copy()
			tc.f(got)
			if !r.Equal(want, got) {
				t.Errorf("logN=%d q=%d %s: vector and scalar transforms differ", r.LogN, r.Mod.Q, tc.name)
			}
		}
	}
}

// TestSetSIMDToggleConcurrent toggles the dispatch flag while workers hammer
// NTT/INTT round trips. Run under -race this proves the runtime toggle is
// data-race-free; the round trips prove both paths stay correct mid-flip
// (they compute identical values, so a flip between passes is harmless).
func TestSetSIMDToggleConcurrent(t *testing.T) {
	prev := simdActive()
	defer SetSIMD(prev)
	r := NewRing(8, GenerateNTTPrimes(30, 8, 1)[0])
	stop := make(chan struct{})
	var flips sync.WaitGroup
	flips.Add(1)
	go func() {
		defer flips.Done()
		on := true
		for {
			select {
			case <-stop:
				return
			default:
				SetSIMD(on)
				on = !on
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			s := NewSampler(uint64(seed))
			p := r.NewPoly()
			for it := 0; it < 50; it++ {
				s.UniformPoly(r, p)
				orig := p.Copy()
				r.NTT(p)
				r.INTT(p)
				for i := range p {
					if p[i] != orig[i] {
						t.Errorf("round trip diverged under concurrent toggling at %d", i)
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(stop)
	flips.Wait()
}

// TestSIMDLevelConsistent pins the obs-facing level string to the dispatch
// state on every build.
func TestSIMDLevelConsistent(t *testing.T) {
	if simdActive() && SIMDLevel() != "avx2" {
		t.Fatalf("SIMD active but level = %q", SIMDLevel())
	}
	if !simdActive() && SIMDLevel() != "none" {
		t.Fatalf("SIMD inactive but level = %q", SIMDLevel())
	}
}
