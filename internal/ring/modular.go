// Package ring implements arithmetic in the negacyclic polynomial ring
// R_q = Z_q[X]/(X^N + 1) for power-of-two N and NTT-friendly word-sized
// primes q ≡ 1 (mod 2N).
//
// It provides the lowest layer of the HEAP reproduction: scalar modular
// arithmetic (Barrett and Montgomery reductions, mirroring the §IV-A
// functional-unit discussion in the paper), number-theoretic transforms with
// precomputed or on-the-fly twiddle factors (§IV-D), automorphisms and
// negacyclic monomial rotations (the permute unit of §IV-A), and
// deterministic samplers for secrets, errors and uniform polynomials.
package ring

import "math/bits"

// Modulus bundles a word-sized prime q with every precomputed constant the
// reduction algorithms need. All arithmetic helpers hang off this struct so
// that a single lookup provides Barrett, Montgomery and Shoup material.
type Modulus struct {
	Q uint64 // the prime modulus, q < 2^61

	// Barrett constants: BRedHi·2^64 + BRedLo = floor(2^128 / q).
	BRedHi uint64
	BRedLo uint64

	// Montgomery constant: -q^{-1} mod 2^64.
	MRedQInv uint64
	// RSquare = 2^128 mod q, used to enter the Montgomery domain.
	RSquare uint64

	// Fixed-shift Barrett constants, specialized to this prime's bit length
	// at NewModulus time (the per-modulus functional-unit specialization of
	// §IV-A): BRedMu = floor(2^{64+BRedShift} / q) with BRedShift = bitlen(q)-1.
	// They reduce a full 128-bit product of canonical operands with a single
	// 64×64→128 estimate multiply instead of the four multiplies of the
	// generic two-word Barrett above.
	BRedMu    uint64
	BRedShift uint

	// q and 1/q as doubles, the operands of the FMA kernels (simd.go): set
	// when fmaFits(q, 0), zero otherwise, which routes this modulus's
	// multiply sweeps to the scalar loops.
	fmaQ, fmaQInv float64
}

// NewModulus precomputes the reduction constants for prime q.
// q must satisfy 1 < q < 2^61 so that lazy sums of two residues fit in a word.
func NewModulus(q uint64) Modulus {
	if q <= 1 || q >= 1<<61 {
		panic("ring: modulus out of supported range (1, 2^61)")
	}
	m := Modulus{Q: q}

	// floor(2^128 / q) via two long divisions.
	hi, rem := bits.Div64(1, 0, q) // floor(2^64 / q), remainder
	lo, _ := bits.Div64(rem, 0, q)
	m.BRedHi, m.BRedLo = hi, lo

	// Newton iteration for -q^{-1} mod 2^64.
	qInv := q // correct mod 2^3
	for i := 0; i < 5; i++ {
		qInv *= 2 - q*qInv
	}
	m.MRedQInv = -qInv

	// 2^128 mod q: square 2^64 mod q using Barrett-free big division.
	r64 := rem // 2^64 mod q
	hi2, lo2 := bits.Mul64(r64, r64)
	_, r128 := bits.Div64(hi2%q, lo2, q)
	m.RSquare = r128

	// Fixed-shift Barrett: with s = bitlen(q)-1, mu = floor(2^{64+s}/q) fits
	// a word (2^s ≤ q... q > 2^s ⟹ mu < 2^64) and a product x = a·b of
	// canonical operands satisfies x < q² < 2^{2s+2}, so floor(x/2^s) fits a
	// word and mulhi(floor(x/2^s), mu) underestimates floor(x/q) by at most 2.
	s := uint(bits.Len64(q)) - 1
	if uint64(1)<<s == q {
		// Exact power of two (not an NTT prime, but NewModulus accepts it):
		// drop one bit so the dividend's high word stays below q. The error
		// bound only improves — f/q halves.
		s--
	}
	m.BRedShift = s
	// 2^{64+s} = (2^s)·2^64: one long division, high word 2^s < q.
	mu, _ := bits.Div64(1<<s, 0, q)
	m.BRedMu = mu

	if fmaFits(q, 0) {
		m.fmaQ = float64(q)
		m.fmaQInv = 1 / m.fmaQ
	}
	return m
}

// AddMod returns a + b mod q for a, b < q.
func (m Modulus) AddMod(a, b uint64) uint64 {
	c := a + b
	if c >= m.Q {
		c -= m.Q
	}
	return c
}

// SubMod returns a - b mod q for a, b < q.
func (m Modulus) SubMod(a, b uint64) uint64 {
	c := a - b
	if c > a { // borrow
		c += m.Q
	}
	return c
}

// Reduce returns a mod q for arbitrary a.
func (m Modulus) Reduce(a uint64) uint64 {
	if a < m.Q {
		return a
	}
	return a % m.Q
}

// BarrettReduce128 reduces the 128-bit value hi·2^64 + lo modulo q, for
// hi < q (every caller reduces a product of a canonical operand pair, or a
// value below q·2^64). It implements the classic Barrett reduction the paper
// maps onto DSP multipliers: estimate the quotient with the precomputed
// floor(2^128/q), multiply back and correct with at most two conditional
// subtractions.
//
// The quotient estimate only ever underestimates, by at most 2: one unit
// from truncating floor(2^128/q) to 128 bits, one from the dropped low word
// of the 256-bit product (its carry into the kept words is what carry1/
// carry2 recover, but the estimate still floors). The remainder therefore
// lands in [0, 3q), which two conditional subtractions canonicalize — no
// data-dependent loop.
func (m Modulus) BarrettReduce128(hi, lo uint64) uint64 {
	// qest = floor((hi·2^64 + lo) · (BRedHi·2^64 + BRedLo) / 2^128)
	ahiuhi := hi * m.BRedHi // low 64 bits of the 2^128 term are all we need
	h1, l1 := bits.Mul64(hi, m.BRedLo)
	h2, l2 := bits.Mul64(lo, m.BRedHi)
	h3, _ := bits.Mul64(lo, m.BRedLo)
	mid, carry1 := bits.Add64(l1, l2, 0)
	_, carry2 := bits.Add64(mid, h3, 0)
	qest := ahiuhi + h1 + h2 + carry1 + carry2

	r := lo - qest*m.Q
	if r >= m.Q {
		r -= m.Q
	}
	if r >= m.Q {
		r -= m.Q
	}
	return r
}

// BarrettReduce128Fixed reduces the 128-bit product hi·2^64 + lo modulo q
// using the per-prime fixed-shift constants: a single 64×64→128 multiply
// estimates the quotient, against the four multiplies of the generic
// two-word reduction. It requires hi·2^64 + lo < q² (i.e. a product of two
// canonical operands), which is what pins the quotient underestimate to at
// most 2 and the correction to two conditional subtractions.
func (m Modulus) BarrettReduce128Fixed(hi, lo uint64) uint64 {
	s := m.BRedShift
	// xs = floor(x / 2^s) < 2^{s+2}, assembled from both words.
	xs := hi<<(64-s) | lo>>s
	qest, _ := bits.Mul64(xs, m.BRedMu) // floor(xs·mu / 2^64) ∈ [floor(x/q)-2, floor(x/q)]
	r := lo - qest*m.Q
	if r >= m.Q {
		r -= m.Q
	}
	if r >= m.Q {
		r -= m.Q
	}
	return r
}

// MulModBarrettFixed returns a·b mod q for canonical a, b < q via the
// fixed-shift Barrett path. Bit-identical to MulModBarrett on canonical
// operands; this is the form the MAC inner loops run.
func (m Modulus) MulModBarrettFixed(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return m.BarrettReduce128Fixed(hi, lo)
}

// MulModBarrett returns a·b mod q using Barrett reduction.
func (m Modulus) MulModBarrett(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return m.BarrettReduce128(hi, lo)
}

// MulMod is the default modular multiplication (Barrett, per §IV-A).
func (m Modulus) MulMod(a, b uint64) uint64 { return m.MulModBarrett(a, b) }

// MRed performs a Montgomery reduction of the 128-bit product a·b, returning
// a·b·2^{-64} mod q. Operands must be < q (one of them typically in the
// Montgomery domain).
func (m Modulus) MRed(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	u := lo * m.MRedQInv // u = T·(-q^{-1}) mod 2^64
	h, _ := bits.Mul64(u, m.Q)
	// T + u·q has zero low word by construction; the carry out of the low
	// word is 1 exactly when lo != 0.
	r := hi + h
	if lo != 0 {
		r++
	}
	if r >= m.Q {
		r -= m.Q
	}
	return r
}

// MForm maps a < q into the Montgomery domain: a·2^64 mod q.
func (m Modulus) MForm(a uint64) uint64 { return m.MRed(a, m.RSquare) }

// MulModMontgomery returns a·b mod q by a round trip through the Montgomery
// domain. It exists so the Barrett-vs-Montgomery design choice from §IV-A can
// be benchmarked head-to-head (see BenchmarkAblationReduction).
func (m Modulus) MulModMontgomery(a, b uint64) uint64 {
	return m.MRed(m.MForm(a), b)
}

// ShoupPrecomp returns floor(w·2^64 / q), the Shoup constant for repeated
// multiplication by the fixed operand w (used for NTT twiddles). The operand
// is reduced modulo q first: bits.Div64 panics when its high word reaches the
// divisor, so w ≥ q would otherwise crash — and MulModShoup requires the
// reduced operand anyway (its quotient estimate is off for w ≥ q).
func (m Modulus) ShoupPrecomp(w uint64) uint64 {
	if w >= m.Q {
		w %= m.Q
	}
	hi, _ := bits.Div64(w, 0, m.Q)
	return hi
}

// MulModShoup returns a·w mod q given wShoup = ShoupPrecomp(w). It requires
// w < q (callers with a possibly unreduced operand must reduce it with the
// same Reduce that ShoupPrecomp applies internally, or the quotient estimate
// no longer matches). This is the fixed-operand fast path used inside the
// NTT butterflies.
func (m Modulus) MulModShoup(a, w, wShoup uint64) uint64 {
	qest, _ := bits.Mul64(a, wShoup)
	r := a*w - qest*m.Q
	if r >= m.Q {
		r -= m.Q
	}
	return r
}

// PowMod returns a^e mod q by square-and-multiply.
func (m Modulus) PowMod(a, e uint64) uint64 {
	r := uint64(1)
	a = m.Reduce(a)
	for e > 0 {
		if e&1 == 1 {
			r = m.MulMod(r, a)
		}
		a = m.MulMod(a, a)
		e >>= 1
	}
	return r
}

// InvMod returns a^{-1} mod q (q prime, a ≠ 0 mod q).
func (m Modulus) InvMod(a uint64) uint64 {
	return m.PowMod(a, m.Q-2)
}
