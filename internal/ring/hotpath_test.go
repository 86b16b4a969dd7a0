package ring

import (
	"math/rand"
	"testing"
)

// TestShoupPrecompBoundary is the regression test for the bits.Div64 panic:
// ShoupPrecomp(w) with w ≥ q used to crash (quotient overflow) instead of
// reducing the operand. The precomputed constant must agree with the one for
// the reduced operand, and the fast multiply must stay correct at the
// boundary w = q−1.
func TestShoupPrecompBoundary(t *testing.T) {
	m := NewModulus(GenerateNTTPrimes(40, 4, 1)[0])
	q := m.Q
	for _, w := range []uint64{q - 1, q, q + 1, 2*q + 5, ^uint64(0)} {
		got := m.ShoupPrecomp(w) // must not panic
		want := m.ShoupPrecomp(w % q)
		if got != want {
			t.Fatalf("ShoupPrecomp(%d) = %d, want ShoupPrecomp(%d mod q) = %d", w, got, w, want)
		}
	}
	// Fast path correctness at the largest legal operand.
	w := q - 1
	ws := m.ShoupPrecomp(w)
	for _, a := range []uint64{0, 1, q / 2, q - 1} {
		if got, want := m.MulModShoup(a, w, ws), m.MulMod(a, w); got != want {
			t.Fatalf("MulModShoup(%d, q-1) = %d, want %d", a, got, want)
		}
	}
}

// TestNTTZeroAllocs locks in that the table-driven NTT/INTT pair and the
// scratch-fed on-the-fly variant never touch the heap.
func TestNTTZeroAllocs(t *testing.T) {
	r := NewRing(8, GenerateNTTPrimes(40, 8, 1)[0])
	p := r.NewPoly()
	for i := range p {
		p[i] = uint64(i * 31)
	}
	if avg := testing.AllocsPerRun(10, func() {
		r.NTT(p)
		r.INTT(p)
	}); avg != 0 {
		t.Fatalf("NTT+INTT allocate %.1f objects/op, want 0", avg)
	}
	sc := NewTwiddleScratch(r.N)
	if avg := testing.AllocsPerRun(10, func() {
		r.NTTOnTheFlyWith(p, sc)
		r.INTT(p)
	}); avg != 0 {
		t.Fatalf("NTTOnTheFlyWith allocates %.1f objects/op, want 0", avg)
	}
}

// TestNTTOnTheFlyWithMatchesPrecomputed checks the scratch variant against
// the table-driven transform.
func TestNTTOnTheFlyWithMatchesPrecomputed(t *testing.T) {
	r := NewRing(6, GenerateNTTPrimes(40, 6, 1)[0])
	a := r.NewPoly()
	b := r.NewPoly()
	for i := range a {
		a[i] = uint64(i*i+7) % r.Mod.Q
		b[i] = a[i]
	}
	r.NTT(a)
	sc := NewTwiddleScratch(r.N)
	r.NTTOnTheFlyWith(b, sc)
	if !r.Equal(a, b) {
		t.Fatal("NTTOnTheFlyWith disagrees with precomputed NTT")
	}
}

// TestMulByMonomialIntoMatches checks the rotation against the schoolbook
// product by the monomial for every rotation class (no wrap, wrap, k ≥ N,
// negative k).
func TestMulByMonomialIntoMatches(t *testing.T) {
	r := NewRing(5, GenerateNTTPrimes(40, 5, 1)[0])
	p := r.NewPoly()
	for i := range p {
		p[i] = uint64(i + 1)
	}
	for _, k := range []int{0, 1, 7, r.N - 1, r.N, r.N + 3, 2*r.N - 1, -1, -r.N} {
		want := r.NewPoly()
		r.MulPolyNaive(p, monomialCoeffs(r, k), want)
		got := r.NewPoly()
		r.MulByMonomialInto(p, k, got)
		if !r.Equal(want, got) {
			t.Fatalf("k=%d: MulByMonomialInto disagrees with the schoolbook product by X^k", k)
		}
	}
}

// monomialCoeffs returns X^k in coefficient representation, for any k
// (reduced mod 2N; X^N = −1).
func monomialCoeffs(r *Ring, k int) Poly {
	n := r.N
	k = ((k % (2 * n)) + 2*n) % (2 * n)
	out := r.NewPoly()
	if k < n {
		out[k] = 1
	} else {
		out[k-n] = r.Mod.Q - 1
	}
	return out
}

// monomialNTT is the transform route to a monomial's evaluation form — the
// delta polynomial X^k through the forward NTT — kept as the oracle for
// MonomialsMinusOneNTT, which reads the same values out of a power table.
func monomialNTT(r *Ring, k int) Poly {
	out := monomialCoeffs(r, k)
	r.NTT(out)
	return out
}

// TestMonomialsMinusOneNTTMatchesTransform locks the table-lookup monomial
// factors word for word to NTT(X^k) − 1 and NTT(X^{−k}) − 1: every k ∈ [0, 2N)
// at N = 8 and 128 and sampled k (the edges among them) at N = 2^13, over
// every committed prime the degree admits including the 61-bit boundary
// prime; k and k ± 2N agree, and negative k is accepted.
func TestMonomialsMinusOneNTTMatchesTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, logN := range []int{3, 7, 13} {
		n := 1 << logN
		var ks []int
		if logN < 13 {
			for k := 0; k < 2*n; k++ {
				ks = append(ks, k)
			}
		} else {
			ks = []int{0, 1, 2, n/2 - 1, n / 2, n - 1, n, n + 1, 2*n - 2, 2*n - 1}
			for i := 0; i < 12; i++ {
				ks = append(ks, rng.Intn(2*n))
			}
		}
		primes := append(simdPrimes(t), GenerateNTTPrimes(61, logN, 1)[0])
		rings := 0
		for _, q := range primes {
			if (q-1)%uint64(2*n) != 0 {
				continue
			}
			rings++
			r := NewRing(logN, q)
			plus, minus := r.NewPoly(), r.NewPoly()
			again, againMinus := r.NewPoly(), r.NewPoly()
			for _, k := range ks {
				r.MonomialsMinusOneNTT(k, plus, minus)
				wantPlus, wantMinus := monomialNTT(r, k), monomialNTT(r, -k)
				for j := range wantPlus {
					wantPlus[j] = r.Mod.SubMod(wantPlus[j], 1)
					wantMinus[j] = r.Mod.SubMod(wantMinus[j], 1)
				}
				if !r.Equal(plus, wantPlus) || !r.Equal(minus, wantMinus) {
					t.Fatalf("N=%d q=%d k=%d: monomial factors differ from NTT(X^±k) − 1", n, q, k)
				}
				for _, alias := range []int{k + 2*n, k - 2*n} {
					r.MonomialsMinusOneNTT(alias, again, againMinus)
					if !r.Equal(again, plus) || !r.Equal(againMinus, minus) {
						t.Fatalf("N=%d q=%d: k=%d and k=%d disagree", n, q, k, alias)
					}
				}
				// −k swaps the two factors.
				r.MonomialsMinusOneNTT(-k, again, againMinus)
				if !r.Equal(again, minus) || !r.Equal(againMinus, plus) {
					t.Fatalf("N=%d q=%d k=%d: −k does not swap the factors", n, q, k)
				}
			}
		}
		if rings < 2 {
			t.Fatalf("N=%d: only %d committed primes admit the degree", n, rings)
		}
	}
}
