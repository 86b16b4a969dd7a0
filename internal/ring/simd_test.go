package ring

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// simdPrimes is the kernel-equivalence basis plus the edges of both vector
// arguments: the 61-bit boundary modulus, where the integer add/sub sweeps'
// signed compares are tightest (every compared value < 2^63 because
// q < 2^61), and fmaEdgePrimes around the FMA bound.
func simdPrimes(t testing.TB) []uint64 {
	t.Helper()
	return append(append(paramsPrimes(t), GenerateNTTPrimes(61, 12, 1)[0]), fmaEdgePrimes()...)
}

// fmaEdgePrimes are the moduli at the edges of the FMA kernels' bound, each
// NTT-friendly up to the degree noted: the largest NTT prime under fmaMaxQ at
// logN 16 (where a transform comes closest to 2^51), the smallest prime the
// vector transforms accept (17, at logN 3), the first NTT prime over the bound
// (logN 16; it must run the scalar loops), and the 30-, 45- and 36/37-bit
// widths of the committed parameter sets (logN 16).
func fmaEdgePrimes() []uint64 {
	return []uint64{
		GenerateNTTPrimes(47, 16, 1)[0],
		17,
		GenerateNTTPrimesUp(47, 16, 1)[0],
		GenerateNTTPrimes(30, 16, 1)[0],
		GenerateNTTPrimes(36, 16, 1)[0],
		GenerateNTTPrimesUp(37, 16, 1)[0],
		GenerateNTTPrimes(45, 16, 1)[0],
	}
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
		ops := r.NewFixedOperands([]uint64{1, w}) // out + a·w
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
			{"MulScalar", q, func(a, b, out Poly) { r.MulScalar(a, w, out) }},
			{"DotCoeffs", q, func(a, b, out Poly) { r.DotCoeffs([]Poly{a, b, out}, []Poly{b, out, a}, out) }},
			{"DotCoeffsAndAdd", q, func(a, b, out Poly) { r.dotCoeffs([]Poly{a, b}, []Poly{b, a}, out, true) }},
			{"DotFixed", q, func(a, b, out Poly) { r.DotFixed([]Poly{out, a}, ops, out) }},
			{"SubMulScalar", q, func(a, b, out Poly) { r.SubMulScalar(a, b, w, out) }},
			{"SubMulScalarAndAdd", q, func(a, b, out Poly) { r.SubMulScalarAndAdd(a, b, w, out) }},
			// The basis conversion hands these two residues of other primes:
			// test up to their documented operand bound. The dot accumulates
			// onto a canonical copy of b, since out may alias the wide a.
			{"MulShoupVec wide", 1 << 50, func(a, b, out Poly) { mod.MulShoupVec(a, out, w, wShoup) }},
			{"DotFixed wide", 1 << 50, func(a, b, out Poly) {
				acc := b.Copy()
				r.DotFixed([]Poly{acc, a}, ops, acc)
				copy(out, acc)
			}},
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

// operandPatterns are the inputs the FMA kernels are held to at the edges of
// their bound: all 0, all 1, all q−1, alternating 0/q−1, and uniform.
var operandPatterns = []struct {
	name string
	fill func(rng *rand.Rand, p []uint64, q uint64)
}{
	{"zero", func(_ *rand.Rand, p []uint64, _ uint64) { fillWith(p, func(int) uint64 { return 0 }) }},
	{"one", func(_ *rand.Rand, p []uint64, _ uint64) { fillWith(p, func(int) uint64 { return 1 }) }},
	{"q-1", func(_ *rand.Rand, p []uint64, q uint64) { fillWith(p, func(int) uint64 { return q - 1 }) }},
	{"alternating", func(_ *rand.Rand, p []uint64, q uint64) {
		fillWith(p, func(i int) uint64 { return uint64(i&1) * (q - 1) })
	}},
	{"uniform", func(rng *rand.Rand, p []uint64, q uint64) {
		fillWith(p, func(int) uint64 { return rng.Uint64() % q })
	}},
}

func fillWith(p []uint64, f func(i int) uint64) {
	for i := range p {
		p[i] = f(i)
	}
}

// edgeRings calls f with a ring for every fmaEdgePrimes modulus at every
// degree from 8 to 2^16 it is NTT-friendly for: every count of generic stages
// the FMA drivers pass over, odd (a one-stage pass) and even.
func edgeRings(f func(r *Ring)) {
	for _, q := range fmaEdgePrimes() {
		for logN := 3; logN <= fmaMaxLogN; logN++ {
			if (q-1)%(uint64(2)<<logN) == 0 {
				f(NewRing(logN, q))
			}
		}
	}
}

// TestFMATransformsMatchScalar holds the transforms to the scalar drivers
// word for word at the edges of the FMA bound (edgeRings × operandPatterns),
// through all four entry points and the on-the-fly forward transform; the
// out-of-place ones must leave src as it was. With the bounds below it
// replaces the per-stage equality of the integer AVX2 kernels, whose lazy
// representatives the FMA kernels do not share by design.
func TestFMATransformsMatchScalar(t *testing.T) {
	withVector(t)
	rng := rand.New(rand.NewSource(404))
	edgeRings(func(r *Ring) {
		sc := NewTwiddleScratch(r.N)
		for _, pat := range operandPatterns {
			src := r.NewPoly()
			pat.fill(rng, src, r.Mod.Q)
			for _, tc := range []struct {
				name string
				f    func(dst, src Poly)
			}{
				{"NTT", func(d, s Poly) { copy(d, s); r.NTT(d) }},
				{"INTT", func(d, s Poly) { copy(d, s); r.INTT(d) }},
				{"NTTInto", r.NTTInto},
				{"INTTInto", r.INTTInto},
				{"NTTOnTheFlyWith", func(d, s Poly) { copy(d, s); r.NTTOnTheFlyWith(d, sc) }},
			} {
				SetSIMD(false)
				want := r.NewPoly()
				tc.f(want, src.Copy())
				SetSIMD(true)
				in, got := src.Copy(), r.NewPoly()
				tc.f(got, in)
				if !r.Equal(want, got) {
					t.Fatalf("logN=%d q=%d %s %s: vector and scalar transforms differ", r.LogN, r.Mod.Q, pat.name, tc.name)
				}
				if !r.Equal(in, src) {
					t.Fatalf("logN=%d q=%d %s %s: the transform wrote its source", r.LogN, r.Mod.Q, pat.name, tc.name)
				}
			}
		}
	})
}

// TestINTTScaleMatchesINTTThenMulScalar holds INTTScaleInto, whose constant
// rides in the inverse transform's N⁻¹ stage, to INTTInto followed by
// MulScalar word for word, on both paths, at the edges of the FMA bound
// (edgeRings × operandPatterns) and for the constants 0, 1, q − 1 and one
// uniform draw, out of place and in place.
func TestINTTScaleMatchesINTTThenMulScalar(t *testing.T) {
	withVector(t)
	rng := rand.New(rand.NewSource(606))
	edgeRings(func(r *Ring) {
		q := r.Mod.Q
		for _, pat := range operandPatterns {
			src := r.NewPoly()
			pat.fill(rng, src, q)
			for _, c := range []uint64{0, 1, q - 1, rng.Uint64()} {
				SetSIMD(false)
				want := r.NewPoly()
				r.INTTInto(want, src)
				r.MulScalar(want, c, want)
				for _, vec := range []bool{false, true} {
					SetSIMD(vec)
					got := r.NewPoly()
					r.INTTScaleInto(got, src, c)
					inPlace := src.Copy()
					r.INTTScaleInto(inPlace, inPlace, c)
					if !r.Equal(want, got) || !r.Equal(want, inPlace) {
						t.Fatalf("logN=%d q=%d %s c=%d vector=%v: INTTScaleInto differs from INTTInto + MulScalar", r.LogN, q, pat.name, c, vec)
					}
				}
			}
		}
	})
}

// TestMulByMonomialMinusOneMatchesRotateThenSub holds the CMux's rotated
// difference (X^k − 1)·p, two segment sweeps, to MulByMonomialInto followed by
// Sub word for word, on both paths, at the exponents where the segments
// degenerate or the sign flips (0, ±1, N − 1, N, N + 1, 2N − 1, 2N + 3) and
// on operandPatterns — all zero among them, where the wrapped segment's
// negated sum must stay 0, not q.
func TestMulByMonomialMinusOneMatchesRotateThenSub(t *testing.T) {
	withVector(t)
	rng := rand.New(rand.NewSource(707))
	for _, logN := range []int{3, 4, 7} {
		r := NewRing(logN, GenerateNTTPrimes(36, logN, 1)[0])
		n := r.N
		for _, pat := range operandPatterns {
			p := r.NewPoly()
			pat.fill(rng, p, r.Mod.Q)
			for _, k := range []int{0, 1, -1, n - 1, n, n + 1, 2*n - 1, 2*n + 3, rng.Intn(4 * n)} {
				SetSIMD(false)
				want := r.NewPoly()
				r.MulByMonomialInto(p, k, want)
				r.Sub(want, p, want)
				for _, vec := range []bool{false, true} {
					SetSIMD(vec)
					got := r.NewPoly()
					r.MulByMonomialMinusOneInto(p, k, got)
					if !r.Equal(want, got) {
						t.Fatalf("N=%d %s k=%d vector=%v: (X^k − 1)·p differs from MulByMonomialInto + Sub", n, pat.name, k, vec)
					}
				}
			}
		}
	}
}

// fmaForwardBounds returns B_0..B_logN, the proven bound on |x| for every
// coefficient after s stages of the FMA forward transform on canonical input
// (DESIGN.md "Vectorized kernels"): a butterfly adds or subtracts
// r = v·w − round(v·(w/q))·q, |r| ≤ q/2 + q·|v|·2^-54, to an unreduced u.
func fmaForwardBounds(q uint64, logN int) []float64 {
	qf := float64(q)
	b := []float64{qf - 1}
	for s := 1; s <= logN; s++ {
		b = append(b, b[s-1]+qf/2+qf*b[s-1]*0x1p-54)
	}
	return b
}

// fmaInverseBounds is fmaForwardBounds for the inverse transform, stage by
// stage along its pass plan (fmaPassBoundaries). The head's two stages grow
// the u+v side unreduced (2(q−1), then twice that). A two-stage pass from
// inputs bounded by B reduces only its A quarter, once: after its first stage
// the A and C sums reach 2B, and after its second the B quarter, a sum of two
// first-stage products, each at most q/2 + q·2B·2^-54, is the largest, at
// q + q·4B·2^-54 (the unreduced A+C inside the pass reaches 4B, and A leaves
// at q/2 + 4B·2^-53). A one-stage pass reduces its u+v side, so both sides
// come out at most q/2 + q·2B·2^-54.
func fmaInverseBounds(q uint64, logN int) []float64 {
	qf := float64(q)
	mul := func(v float64) float64 { return qf/2 + qf*v*0x1p-54 }
	b := []float64{qf - 1, 2 * (qf - 1), 4 * (qf - 1)}
	bounds := fmaPassBoundaries(logN, true)
	for i := 1; i < len(bounds); i++ {
		in := b[len(b)-1]
		if bounds[i]-bounds[i-1] == 1 {
			b = append(b, max(qf/2+2*in*0x1p-53, mul(2*in)))
			continue
		}
		stage1 := max(2*in, mul(2*in))
		sumB := 2 * mul(2*in)
		b = append(b, stage1, max(qf/2+4*in*0x1p-53, mul(4*in), sumB, mul(sumB)))
	}
	return b
}

// fmaPassBoundaries returns the stage counts after every pass of an FMA
// transform but the last, from the pass plan rather than from the drivers:
// the forward transform's first pass runs stage 1, an odd number of generic
// stages (the logN − 3 with t ≥ 4) opens with a one-stage pass, the others
// run two per pass, and the tail runs t = 2 and t = 1; the inverse is the
// mirror — the head's two stages, the generic pairs, the one-stage pass, the
// N⁻¹ stage.
func fmaPassBoundaries(logN int, inverse bool) []int {
	generic := logN - 3
	widths := []int{1}
	if inverse {
		widths = []int{2}
	}
	if generic%2 == 1 && !inverse {
		widths = append(widths, 1)
	}
	for range generic / 2 {
		widths = append(widths, 2)
	}
	if generic%2 == 1 && inverse {
		widths = append(widths, 1)
	}
	b := make([]int, len(widths))
	stage := 0
	for i, w := range widths {
		stage += w
		b[i] = stage
	}
	return b
}

// TestFMAStageBounds runs the FMA transforms through their per-pass hook at
// the edges of the bound (edgeRings × operandPatterns) and asserts that after
// every pass but the last each coefficient is an exact integer within the
// proven bound of the stages run so far, forward and inverse; that the hook
// fires exactly at the pass boundaries of the plan and ends at the stage
// before the last pass (logN − 2 forward, where the tail runs two; logN − 1
// inverse); and that the bound itself stays under 2^51 at the corner fmaFits
// admits and passes it one bit of q later.
func TestFMAStageBounds(t *testing.T) {
	withVector(t)
	if b := fmaForwardBounds(fmaMaxQ-1, fmaMaxLogN); b[fmaMaxLogN] >= 0x1p51 {
		t.Fatalf("forward bound %.3g at q < 2^47, logN %d reaches 2^51", b[fmaMaxLogN], fmaMaxLogN)
	}
	if b := fmaForwardBounds(2*fmaMaxQ, fmaMaxLogN); b[fmaMaxLogN] < 0x1p51 {
		t.Fatalf("forward bound at q = 2^48 is %.3g: fmaMaxQ could be raised", b[fmaMaxLogN])
	}
	rng := rand.New(rand.NewSource(505))
	edgeRings(func(r *Ring) {
		if r.fma == nil {
			return
		}
		q := r.Mod.Q
		for _, pat := range operandPatterns {
			src := r.NewPoly()
			pat.fill(rng, src, q)
			var visited []int
			check := func(dir string, bounds []float64) func(int, Poly) {
				visited = visited[:0]
				return func(s int, p Poly) {
					visited = append(visited, s)
					for i, w := range p {
						x := math.Float64frombits(w)
						if x != math.Trunc(x) || math.Abs(x) > bounds[s] {
							t.Fatalf("logN=%d q=%d %s %s stage %d: coefficient %d is %v, bound %.4g",
								r.LogN, q, pat.name, dir, s, i, x, bounds[s])
						}
					}
				}
			}
			passes := func(dir string, inverse bool, last int) {
				want := fmaPassBoundaries(r.LogN, inverse)
				if !slices.Equal(visited, want) || want[len(want)-1] != last {
					t.Fatalf("logN=%d %s: hook fired after stages %v, want the pass boundaries %v ending at %d", r.LogN, dir, visited, want, last)
				}
			}
			dst := r.NewPoly()
			r.nttFMA(dst, src, r.psiTable, r.fma.psiQ, check("forward", fmaForwardBounds(q, r.LogN)))
			passes("forward", false, r.LogN-2)
			r.inttFMA(dst, src, check("inverse", fmaInverseBounds(q, r.LogN)))
			passes("inverse", true, r.LogN-1)
		}
	})
}

// TestFMADispatchFollowsTheBound pins which kernel path is live: with the
// vector kernels on, a modulus fmaFits accepts runs the FMA sweeps and a
// ring of at least vecMinN coefficients over it the FMA transforms; a prime
// at or over the bound, a degree over 2^fmaMaxLogN and a ring under vecMinN
// run the scalar loops — and are still correct there.
func TestFMADispatchFollowsTheBound(t *testing.T) {
	withVector(t)
	under, over := GenerateNTTPrimes(47, 16, 1)[0], GenerateNTTPrimesUp(47, 16, 1)[0]
	if !fmaFits(fmaMaxQ-1, fmaMaxLogN) || fmaFits(fmaMaxQ, 0) || fmaFits(under, fmaMaxLogN+1) {
		t.Fatal("fmaFits does not draw the line at q < 2^47, logN ≤ 16")
	}
	for _, c := range []struct {
		r          *Ring
		sweep, ntt bool
	}{
		{NewRing(10, under), true, true},
		{NewRing(10, over), false, false},
		{NewRing(2, 17), true, false},
	} {
		if c.r.Mod.vecFMA() != c.sweep || c.r.vecNTT() != c.ntt {
			t.Fatalf("q=%d logN=%d: FMA sweeps %v transforms %v, want %v %v",
				c.r.Mod.Q, c.r.LogN, c.r.Mod.vecFMA(), c.r.vecNTT(), c.sweep, c.ntt)
		}
	}
	r := NewRing(6, over)
	s := NewSampler(606)
	a, b := r.NewPoly(), r.NewPoly()
	s.UniformPoly(r, a)
	s.UniformPoly(r, b)
	want := r.NewPoly()
	r.MulPolyNaive(a, b, want)
	r.NTT(a)
	r.NTT(b)
	got := r.NewPoly()
	r.MulCoeffs(a, b, got)
	r.INTT(got)
	if !r.Equal(got, want) {
		t.Fatalf("q=%d over the bound: NTT product differs from the naive one", over)
	}
}

// TestMulScalarTakesCanonicalOperands pins MulScalar's contract — canonical
// a, any scalar (reduced first) — on both paths against MulMod, at the
// operand patterns and over every simdPrimes modulus. Lazy operands are
// outside it: the inverse transforms' N^{-1} pass, which fed it [0, 2q)
// values, is folded into the FMA INTT and is a scalar loop of its own in the
// scalar one.
func TestMulScalarTakesCanonicalOperands(t *testing.T) {
	withVector(t)
	rng := rand.New(rand.NewSource(707))
	for _, q := range simdPrimes(t) {
		r := &Ring{Mod: NewModulus(q)}
		for _, c := range []uint64{0, 1, q - 1, q, q + 3, rng.Uint64()} {
			for _, pat := range operandPatterns {
				a := make(Poly, 37)
				pat.fill(rng, a, q)
				for _, vec := range []bool{false, true} {
					SetSIMD(vec)
					out := make(Poly, len(a))
					r.MulScalar(a, c, out)
					for i := range a {
						if want := r.Mod.MulMod(a[i], c%q); out[i] != want {
							t.Fatalf("q=%d c=%d %s vector=%v: MulScalar[%d] = %d, want %d", q, c, pat.name, vec, i, out[i], want)
						}
					}
				}
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
	if simdActive() && SIMDLevel() != "avx2+fma" {
		t.Fatalf("SIMD active but level = %q", SIMDLevel())
	}
	if !simdActive() && SIMDLevel() != "none" {
		t.Fatalf("SIMD inactive but level = %q", SIMDLevel())
	}
}
