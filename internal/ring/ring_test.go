package ring

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestPolyAddSubNeg(t *testing.T) {
	r := NewRing(8, GenerateNTTPrimes(30, 8, 1)[0])
	s := NewSampler(20)
	a, b := r.NewPoly(), r.NewPoly()
	s.UniformPoly(r, a)
	s.UniformPoly(r, b)

	sum, diff := r.NewPoly(), r.NewPoly()
	r.Add(a, b, sum)
	r.Sub(sum, b, diff)
	if !r.Equal(diff, a) {
		t.Error("(a+b)-b != a")
	}
	neg := r.NewPoly()
	r.Neg(a, neg)
	r.Add(a, neg, sum)
	for i, v := range sum {
		if v != 0 {
			t.Fatalf("a + (-a) != 0 at %d: %d", i, v)
		}
	}
}

func TestMulScalar(t *testing.T) {
	r := NewRing(7, GenerateNTTPrimes(30, 7, 1)[0])
	s := NewSampler(21)
	a := r.NewPoly()
	s.UniformPoly(r, a)
	out := r.NewPoly()
	r.MulScalar(a, 3, out)
	want := r.NewPoly()
	r.Add(a, a, want)
	r.Add(want, a, want)
	if !r.Equal(out, want) {
		t.Error("3·a != a+a+a")
	}
}

func TestMulCoeffsAndAdd(t *testing.T) {
	r := NewRing(6, 7681)
	s := NewSampler(22)
	a, b, acc := r.NewPoly(), r.NewPoly(), r.NewPoly()
	s.UniformPoly(r, a)
	s.UniformPoly(r, b)
	s.UniformPoly(r, acc)
	want := r.NewPoly()
	r.MulCoeffs(a, b, want)
	r.Add(want, acc, want)
	r.MulCoeffsAndAdd(a, b, acc)
	if !r.Equal(acc, want) {
		t.Error("MulCoeffsAndAdd mismatch")
	}
}

func TestAutomorphismCoeffDomain(t *testing.T) {
	r := NewRing(4, 12289)
	// p = X: automorphism g sends X -> X^g.
	for _, g := range []uint64{3, 5, 7, 31} {
		p := r.NewPoly()
		p[1] = 1
		out := r.NewPoly()
		r.Automorphism(p, g, out)
		want := r.NewPoly()
		r.MulByMonomialInto(appendOne(r), int(g), want) // X^g = 1·X^g
		if !r.Equal(out, want) {
			t.Errorf("g=%d: automorphism of X != X^g", g)
		}
	}
}

// refAutomorphism is the formula Automorphism replaced — one i·g mod 2N per
// coefficient, a branch on the wrap and on zero — kept as the reference for
// the division-free form.
func refAutomorphism(r *Ring, p Poly, g uint64, out Poly) {
	n := uint64(r.N)
	twoN := 2 * n
	g %= twoN
	q := r.Mod.Q
	for i := uint64(0); i < n; i++ {
		k := (i * g) % twoN
		v := p[i]
		if k < n {
			out[k] = v
		} else {
			if v != 0 {
				v = q - v
			}
			out[k-n] = v
		}
	}
}

// TestAutomorphismMatchesIndexFormula: the running-index Automorphism must
// equal the per-coefficient formula for every odd g at N = 8 and 128 and for
// sampled g at the paper's N = 2^13 (unreduced g included), on operands with
// zero coefficients — −0 must stay 0, not q — and AutomorphismAdd must equal
// the formula followed by Add on an accumulator holding 0 and q−1.
func TestAutomorphismMatchesIndexFormula(t *testing.T) {
	s := NewSampler(29)
	for _, logN := range []int{3, 7, 13} {
		r := NewRing(logN, GenerateNTTPrimes(36, logN, 1)[0])
		n := uint64(r.N)
		var gs []uint64
		if logN < 13 {
			for g := uint64(1); g < 2*n; g += 2 {
				gs = append(gs, g)
			}
		} else {
			gs = []uint64{1, 3, 5, n - 1, n + 1, 2*n - 1, 2*n + 3, 1<<40 + 1}
			for len(gs) < 24 {
				gs = append(gs, s.UniformMod(2*n)|1)
			}
		}
		p := r.NewPoly()
		s.UniformPoly(r, p)
		for i := 0; i < r.N; i += 3 {
			p[i] = 0
		}
		p[1], p[r.N-1] = r.Mod.Q-1, 1
		acc := r.NewPoly()
		s.UniformPoly(r, acc)
		for i := 0; i < r.N; i += 4 {
			acc[i], acc[i+1] = 0, r.Mod.Q-1
		}
		got, want := r.NewPoly(), r.NewPoly()
		for _, g := range gs {
			r.Automorphism(p, g, got)
			refAutomorphism(r, p, g, want)
			if !r.Equal(got, want) {
				t.Fatalf("N=%d g=%d: Automorphism differs from the index formula", n, g)
			}
			r.Add(acc, want, want)
			copy(got, acc)
			r.AutomorphismAdd(p, g, got)
			if !r.Equal(got, want) {
				t.Fatalf("N=%d g=%d: AutomorphismAdd differs from the index formula followed by Add", n, g)
			}
		}
	}
}

func appendOne(r *Ring) Poly {
	p := r.NewPoly()
	p[0] = 1
	return p
}

func TestAutomorphismIsRingHomomorphism(t *testing.T) {
	r := NewRing(6, GenerateNTTPrimes(30, 6, 1)[0])
	s := NewSampler(23)
	g := uint64(5)
	a, b := r.NewPoly(), r.NewPoly()
	s.UniformPoly(r, a)
	s.UniformPoly(r, b)

	// σ(a·b) == σ(a)·σ(b)
	prod := r.NewPoly()
	r.MulPolyNaive(a, b, prod)
	sProd := r.NewPoly()
	r.Automorphism(prod, g, sProd)

	sa, sb := r.NewPoly(), r.NewPoly()
	r.Automorphism(a, g, sa)
	r.Automorphism(b, g, sb)
	prod2 := r.NewPoly()
	r.MulPolyNaive(sa, sb, prod2)
	if !r.Equal(sProd, prod2) {
		t.Error("automorphism is not multiplicative")
	}
}

func TestAutomorphismNTTMatchesCoeffDomain(t *testing.T) {
	r := NewRing(8, GenerateNTTPrimes(30, 8, 1)[0])
	s := NewSampler(24)
	for _, g := range []uint64{3, 5, 25, uint64(2*r.N - 1)} {
		a := r.NewPoly()
		s.UniformPoly(r, a)

		want := r.NewPoly()
		r.Automorphism(a, g, want)
		r.NTT(want)

		got := a.Copy()
		r.NTT(got)
		perm := r.AutomorphismNTTIndex(g)
		out := r.NewPoly()
		r.AutomorphismNTT(got, perm, out)
		if !r.Equal(out, want) {
			t.Errorf("g=%d: NTT-domain automorphism mismatch", g)
		}
	}
}

func TestMulByMonomial(t *testing.T) {
	r := NewRing(3, 7681)
	p := r.NewPoly()
	s := NewSampler(25)
	s.UniformPoly(r, p)

	// Rotating by 2N is the identity; rotating by N negates.
	out := r.NewPoly()
	r.MulByMonomialInto(p, 2*r.N, out)
	if !r.Equal(out, p) {
		t.Error("X^{2N} rotation is not identity")
	}
	r.MulByMonomialInto(p, r.N, out)
	neg := r.NewPoly()
	r.Neg(p, neg)
	if !r.Equal(out, neg) {
		t.Error("X^N rotation is not negation")
	}

	// Composition: rotating by a then b equals rotating by a+b.
	f := func(a, b uint8) bool {
		o1, o2, o3 := r.NewPoly(), r.NewPoly(), r.NewPoly()
		r.MulByMonomialInto(p, int(a), o1)
		r.MulByMonomialInto(o1, int(b), o2)
		r.MulByMonomialInto(p, int(a)+int(b), o3)
		return r.Equal(o2, o3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}

	// Against naive polynomial multiplication by monomial.
	mono := r.NewPoly()
	mono[3] = 1
	want := r.NewPoly()
	r.MulPolyNaive(p, mono, want)
	r.MulByMonomialInto(p, 3, out)
	if !r.Equal(out, want) {
		t.Error("MulByMonomialInto(3) != naive p·X^3")
	}
}

// TestMulByMonomialIntoMustNotAlias keeps the no-alias contract explicit: the
// rotation writes each output position straight from its input, so running it
// in place reads coefficients it has already overwritten and is wrong, where
// the same call into a separate buffer is right. Callers must pass distinct
// polynomials; nothing wraps the kernel in a temporary for them.
func TestMulByMonomialIntoMustNotAlias(t *testing.T) {
	r := NewRing(3, 7681)
	p := r.NewPoly()
	for i := range p {
		p[i] = uint64(i + 1)
	}
	want := r.NewPoly()
	r.MulByMonomialInto(p, 3, want)
	inPlace := p.Copy()
	r.MulByMonomialInto(inPlace, 3, inPlace)
	if r.Equal(inPlace, want) {
		t.Error("an aliased rotation happened to be right; the contract test needs a harder input")
	}
}

func TestGaloisElements(t *testing.T) {
	r := NewRing(4, 12289)
	if g := r.GaloisElementForRotation(0); g != 1 {
		t.Errorf("rotation by 0 should be identity, got %d", g)
	}
	if g := r.GaloisElementConjugate(); g != uint64(2*r.N-1) {
		t.Errorf("conjugate galois element: got %d", g)
	}
	// 5^k mod 2N values must all be odd and distinct for k in [0, N/2).
	seen := map[uint64]bool{}
	for k := 0; k < r.N/2; k++ {
		g := r.GaloisElementForRotation(k)
		if g%2 == 0 {
			t.Fatalf("even galois element %d", g)
		}
		if seen[g] {
			t.Fatalf("repeated galois element %d at k=%d", g, k)
		}
		seen[g] = true
	}
}

func TestSamplerDeterminism(t *testing.T) {
	r := NewRing(6, 7681)
	a, b := r.NewPoly(), r.NewPoly()
	NewSampler(99).UniformPoly(r, a)
	NewSampler(99).UniformPoly(r, b)
	if !r.Equal(a, b) {
		t.Error("same seed should give same polynomial")
	}
	NewSampler(100).UniformPoly(r, b)
	if r.Equal(a, b) {
		t.Error("different seeds should differ")
	}
}

func TestTernaryAndGaussianSamplers(t *testing.T) {
	r := NewRing(10, GenerateNTTPrimes(30, 10, 1)[0])
	s := NewSampler(30)
	p := r.NewPoly()
	SignedToPoly(r, s.TernarySigned(r.N), p)
	counts := map[uint64]int{}
	for _, v := range p {
		counts[v]++
	}
	if len(counts) != 3 {
		t.Fatalf("ternary sampler produced %d distinct values", len(counts))
	}
	for v := range counts {
		if v != 0 && v != 1 && v != r.Mod.Q-1 {
			t.Fatalf("ternary sampler produced %d", v)
		}
	}
	// Each of the three values should appear with roughly probability 1/3.
	for v, c := range counts {
		if c < r.N/5 || c > r.N/2 {
			t.Errorf("ternary value %d count %d far from N/3=%d", v, c, r.N/3)
		}
	}

	g := s.GaussianSigned(4096, DefaultSigma)
	var sum, sumSq float64
	for _, v := range g {
		if v < -20 || v > 20 {
			t.Fatalf("gaussian sample %d outside 6-sigma truncation", v)
		}
		sum += float64(v)
		sumSq += float64(v) * float64(v)
	}
	mean := sum / float64(len(g))
	if mean < -0.3 || mean > 0.3 {
		t.Errorf("gaussian mean %f too far from 0", mean)
	}
	variance := sumSq/float64(len(g)) - mean*mean
	if variance < 7 || variance > 14 { // sigma^2 = 10.24
		t.Errorf("gaussian variance %f far from %f", variance, DefaultSigma*DefaultSigma)
	}
}

func TestBinarySigned(t *testing.T) {
	s := NewSampler(31)
	v := s.BinarySigned(1000)
	ones := 0
	for _, x := range v {
		if x != 0 && x != 1 {
			t.Fatalf("binary sampler produced %d", x)
		}
		ones += int(x)
	}
	if ones < 400 || ones > 600 {
		t.Errorf("binary sampler unbalanced: %d ones / 1000", ones)
	}
}

func TestSignedToPolyRoundTrip(t *testing.T) {
	r := NewRing(5, 7681)
	v := []int64{0, 1, -1, 5, -5, 3000, -3000, 0, 2, -2, 7, -7, 100, -100, 1, -1,
		0, 1, -1, 5, -5, 3000, -3000, 0, 2, -2, 7, -7, 100, -100, 1, -1}
	p := r.NewPoly()
	SignedToPoly(r, v, p)
	for i, want := range v {
		if got := CenteredRep(p[i], r.Mod.Q); got != want {
			t.Errorf("coefficient %d: got %d want %d", i, got, want)
		}
	}
}

// TestSignedToPolyMatchesBigInt holds SignedToPoly to big.Int's Euclidean
// remainder on the values at the edges of its fast path — 0, ±1, ±(q−1), ±q,
// ±2q — and at math.MinInt64 and math.MaxInt64, for a small and a 61-bit
// modulus. A negative multiple of q must encode as 0, not q.
func TestSignedToPolyMatchesBigInt(t *testing.T) {
	for _, q := range []uint64{7681, GenerateNTTPrimes(61, 4, 1)[0]} {
		r := NewRing(4, q)
		qi := int64(q)
		vals := []int64{0, 1, -1, qi - 1, -(qi - 1), qi, -qi, 2 * qi, -2 * qi, qi + 1, -(qi + 1), math.MinInt64, math.MaxInt64}
		p := make(Poly, len(vals))
		SignedToPoly(r, vals, p)
		bq := new(big.Int).SetUint64(q)
		for i, x := range vals {
			want := new(big.Int).Mod(big.NewInt(x), bq).Uint64()
			if p[i] != want {
				t.Errorf("q=%d: SignedToPoly(%d) = %d, want %d", q, x, p[i], want)
			}
		}
	}
}

// TestUniformDrawsMatchUint64N holds the open-coded uniform draws to
// rand.Rand.Uint64N on a twin stream: the same residues and the same stream
// position after them, for moduli whose rejection threshold is large enough
// to be hit (just over 2⁶³ and a power of two plus one), an NTT prime and a
// power of two.
func TestUniformDrawsMatchUint64N(t *testing.T) {
	for _, q := range []uint64{1<<63 + 1, 3 << 62, 1<<32 + 1, GenerateNTTPrimes(36, 4, 1)[0], 1 << 20} {
		s, ref := NewSampler(5), NewSampler(5)
		r := &Ring{Mod: Modulus{Q: q}}
		p := make(Poly, 256)
		s.UniformPoly(r, p)
		for i, got := range p {
			if want := ref.rng.Uint64N(q); got != want {
				t.Fatalf("q=%d: UniformPoly word %d = %d, Uint64N gives %d", q, i, got, want)
			}
		}
		for i := 0; i < 64; i++ {
			if got, want := s.UniformMod(q), ref.rng.Uint64N(q); got != want {
				t.Fatalf("q=%d: UniformMod draw %d = %d, Uint64N gives %d", q, i, got, want)
			}
		}
		if s.Uint64() != ref.Uint64() {
			t.Fatalf("q=%d: the streams part after the draws", q)
		}
	}
}

// TestGaussianIntoMatchesGaussianSigned requires the in-place draw to give
// GaussianSigned's values from the same stream position.
func TestGaussianIntoMatchesGaussianSigned(t *testing.T) {
	s, ref := NewSampler(6), NewSampler(6)
	got := make([]int64, 500)
	s.GaussianInto(got, DefaultSigma)
	for i, want := range ref.GaussianSigned(len(got), DefaultSigma) {
		if got[i] != want {
			t.Fatalf("sample %d: %d, want %d", i, got[i], want)
		}
	}
	if s.Uint64() != ref.Uint64() {
		t.Fatal("the streams part after the draws")
	}
}
