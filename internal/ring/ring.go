package ring

import "math/bits"

// Poly is a dense degree-(N-1) polynomial over Z_q, stored as N coefficients.
// Whether a Poly is in coefficient or NTT (evaluation) representation is
// tracked by its owner; the ring operations themselves are representation
// agnostic except where documented.
type Poly []uint64

// Copy returns an independent copy of p.
func (p Poly) Copy() Poly {
	q := make(Poly, len(p))
	copy(q, p)
	return q
}

// Zero clears all coefficients in place.
func (p Poly) Zero() {
	for i := range p {
		p[i] = 0
	}
}

// Ring is the negacyclic polynomial ring Z_q[X]/(X^N+1) for a single prime
// modulus q, with all NTT tables precomputed. A multi-limb RNS ring is a
// slice of these (see package rns).
type Ring struct {
	N    int // ring degree, power of two
	LogN int
	Mod  Modulus

	psi    uint64 // primitive 2N-th root of unity
	psiInv uint64

	// Twiddle tables in the bit-reversed order used by the in-place
	// Cooley-Tukey / Gentleman-Sande passes: psiTable[i] = psi^{brv(i)},
	// together with their Shoup companions for the fixed-operand fast path,
	// derived once at ring build.
	psiTable         []uint64
	psiTableShoup    []uint64
	psiInvTable      []uint64
	psiInvTableShoup []uint64

	// psiPow[i] = psi^i for i ∈ [0, N), natural order, and slotExp[j] =
	// 2·brv(j)+1, the power of psi NTT slot j evaluates at (shared by every
	// ring of this degree): together they give the evaluation form of a
	// monomial by lookup (MonomialsMinusOneNTT).
	psiPow  []uint64
	slotExp []uint32

	nInv      uint64 // N^{-1} mod q
	nInvShoup uint64

	// fma is the FMA transforms' twiddles; nil (the ring is below vecMinN or
	// fmaFits rejects it) routes NTT and INTT to the scalar drivers.
	fma *fmaTwiddles
}

// NewRing constructs the ring Z_q[X]/(X^N+1). q must be prime with
// q ≡ 1 mod 2N.
func NewRing(logN int, q uint64) *Ring {
	n := 1 << logN
	r := &Ring{N: n, LogN: logN, Mod: NewModulus(q)}
	r.psi = PrimitiveRoot2N(q, logN)
	r.psiInv = r.Mod.InvMod(r.psi)

	r.psiTable = make([]uint64, n)
	r.psiTableShoup = make([]uint64, n)
	r.psiInvTable = make([]uint64, n)
	r.psiInvTableShoup = make([]uint64, n)

	fillTwiddles(r.Mod, r.psi, logN, r.psiTable)
	fillTwiddles(r.Mod, r.psiInv, logN, r.psiInvTable)
	for i := 0; i < n; i++ {
		r.psiTableShoup[i] = r.Mod.ShoupPrecomp(r.psiTable[i])
		r.psiInvTableShoup[i] = r.Mod.ShoupPrecomp(r.psiInvTable[i])
	}
	r.psiPow = make([]uint64, n)
	for i := range r.psiPow {
		r.psiPow[i] = r.psiTable[bitReverse(uint64(i), logN)]
	}
	r.slotExp = slotExponents(logN)
	r.nInv = r.Mod.InvMod(uint64(n))
	r.nInvShoup = r.Mod.ShoupPrecomp(r.nInv)
	if n >= vecMinN && fmaFits(q, logN) {
		r.fma = newFMATwiddles(r)
	}
	return r
}

// fillTwiddles writes table[i] = base^{bitreverse_logN(i)} mod q.
func fillTwiddles(m Modulus, base uint64, logN int, table []uint64) {
	n := 1 << logN
	pow := uint64(1)
	for i := 0; i < n; i++ {
		table[bitReverse(uint64(i), logN)] = pow
		pow = m.MulMod(pow, base)
	}
}

func bitReverse(x uint64, bitsN int) uint64 {
	var r uint64
	for i := 0; i < bitsN; i++ {
		r = (r << 1) | (x & 1)
		x >>= 1
	}
	return r
}

// NewPoly allocates a zero polynomial of the ring's degree.
func (r *Ring) NewPoly() Poly { return make(Poly, r.N) }

// Add sets out = a + b (mod q), elementwise. Valid in either representation.
func (r *Ring) Add(a, b, out Poly) {
	q := r.Mod.Q
	a = a[:len(out)]
	b = b[:len(out)]
	i := 0
	if simdActive() {
		nv := len(out) &^ 3
		addVecAVX2(out[:nv], a[:nv], b[:nv], q)
		i = nv
	}
	for ; i < len(out); i++ {
		c := a[i] + b[i]
		if c >= q {
			c -= q
		}
		out[i] = c
	}
}

// Sub sets out = a - b (mod q).
func (r *Ring) Sub(a, b, out Poly) {
	q := r.Mod.Q
	a = a[:len(out)]
	b = b[:len(out)]
	i := 0
	if simdActive() {
		nv := len(out) &^ 3
		subVecAVX2(out[:nv], a[:nv], b[:nv], q)
		i = nv
	}
	for ; i < len(out); i++ {
		c := a[i] - b[i]
		if c > a[i] {
			c += q
		}
		out[i] = c
	}
}

// negAdd sets out = −(a + b) (mod q) over len(out) words: the wrapped segment
// of MulByMonomialMinusOneInto.
func (r *Ring) negAdd(a, b, out Poly) {
	q := r.Mod.Q
	a = a[:len(out)]
	b = b[:len(out)]
	i := 0
	if simdActive() {
		nv := len(out) &^ 3
		negAddVecAVX2(out[:nv], a[:nv], b[:nv], q)
		i = nv
	}
	for ; i < len(out); i++ {
		c := a[i] + b[i]
		if c >= q {
			c -= q
		}
		if c != 0 {
			c = q - c
		}
		out[i] = c
	}
}

// Neg sets out = -a (mod q).
func (r *Ring) Neg(a, out Poly) {
	q := r.Mod.Q
	for i := range out {
		if a[i] == 0 {
			out[i] = 0
		} else {
			out[i] = q - a[i]
		}
	}
}

// MulCoeffs sets out = a ⊙ b, the elementwise (Hadamard) product of
// canonical operands. Both must be in NTT representation for this to realize
// a negacyclic polynomial product.
func (r *Ring) MulCoeffs(a, b, out Poly) {
	// The FMA kernel takes whole 4-lane groups when the modulus fits it; the
	// scalar tail (and every coefficient otherwise) is an open-coded
	// fixed-shift Barrett, the same per-prime specialization as the MAC.
	q := r.Mod.Q
	mu, shift := r.Mod.BRedMu, r.Mod.BRedShift
	a = a[:len(out)]
	b = b[:len(out)]
	i := 0
	if r.Mod.vecFMA() {
		nv := len(out) &^ 3
		mulCoeffsFMA(out[:nv], a[:nv], b[:nv], r.Mod.fmaQ, r.Mod.fmaQInv)
		i = nv
	}
	for ; i < len(out); i++ {
		hi, lo := bits.Mul64(a[i], b[i])
		qest, _ := bits.Mul64(hi<<(64-shift)|lo>>shift, mu)
		p := lo - qest*q
		if p >= q {
			p -= q
		}
		if p >= q {
			p -= q
		}
		out[i] = p
	}
}

// MulCoeffsAndAdd sets out += a ⊙ b, the fused multiply-accumulate that the
// paper's external-product MAC units implement (§IV-A), on canonical
// operands and accumulator.
func (r *Ring) MulCoeffsAndAdd(a, b, out Poly) {
	// FMA kernel on whole 4-lane groups when the modulus fits it, as in
	// MulCoeffs. The scalar loop is an open-coded fixed-shift Barrett MAC:
	// this is the inner loop of the key-switch digit accumulation, so the
	// per-prime constants are hoisted and the operand slices pinned to
	// len(out) for bounds-check elimination. The arithmetic is exactly
	// Modulus.MulModBarrettFixed + AddMod, which on canonical operands is
	// bit-identical to the generic two-word Barrett this loop used to run —
	// one estimate multiply per coefficient instead of four.
	q := r.Mod.Q
	mu, shift := r.Mod.BRedMu, r.Mod.BRedShift
	a = a[:len(out)]
	b = b[:len(out)]
	i := 0
	if r.Mod.vecFMA() {
		nv := len(out) &^ 3
		mulCoeffsAndAddFMA(out[:nv], a[:nv], b[:nv], r.Mod.fmaQ, r.Mod.fmaQInv)
		i = nv
	}
	for ; i < len(out); i++ {
		hi, lo := bits.Mul64(a[i], b[i])
		qest, _ := bits.Mul64(hi<<(64-shift)|lo>>shift, mu)
		p := lo - qest*q
		if p >= q {
			p -= q
		}
		if p >= q {
			p -= q
		}
		s := out[i] + p
		if s >= q {
			s -= q
		}
		out[i] = s
	}
}

// MulScalar sets out = c·a (mod q) for canonical a (every a[i] < q), the
// fixed-operand sweep of rescale and ModDown.
func (r *Ring) MulScalar(a Poly, c uint64, out Poly) {
	c = r.Mod.Reduce(c)
	r.Mod.MulShoupVec(a[:len(out)], out, c, r.Mod.ShoupPrecomp(c))
}

// mulShoupScalar is the scalar fixed-operand Shoup sweep out[i] = a[i]·c mod
// q, canonical output, correct for any a[i] < 2^64 — which is why the scalar
// INTT can run its N^{-1} pass through it on lazy [0, 2q) values.
func mulShoupScalar(out, a []uint64, q, c, cShoup uint64) {
	a = a[:len(out)]
	for i, x := range a {
		hi, _ := bits.Mul64(x, cShoup)
		v := x*c - hi*q
		if v >= q {
			v -= q
		}
		out[i] = v
	}
}

// MulShoupVec sets out[i] = a[i]·w mod q for a fixed operand w < q with Shoup
// companion wShoup. Every a[i] must be below 2^50 (a canonical residue of any
// modulus this tree builds qualifies). The FMA kernel takes whole 4-lane
// groups with w/q formed once per call; the scalar loop finishes the tail.
func (m Modulus) MulShoupVec(a, out []uint64, w, wShoup uint64) {
	a = a[:len(out)]
	i := 0
	if m.vecFMA() {
		i = len(out) &^ 3
		wf := float64(w)
		mulScalarFMA(out[:i], a[:i], wf, wf/m.fmaQ, m.fmaQ)
	}
	mulShoupScalar(out[i:], a[i:], m.Q, w, wShoup)
}

// AddScalar sets out = a + c (mod q) applied to the constant coefficient
// only when the polynomial is in coefficient form would be wrong for NTT
// form; this helper adds c to every slot, which is the correct constant
// addition for NTT representation.
func (r *Ring) AddScalar(a Poly, c uint64, out Poly) {
	c = r.Mod.Reduce(c)
	for i := range out {
		out[i] = r.Mod.AddMod(a[i], c)
	}
}

// MulPolyNaive computes the negacyclic product out = a·b in coefficient
// representation by the O(N^2) schoolbook method. It exists as the reference
// against which the NTT is tested.
func (r *Ring) MulPolyNaive(a, b, out Poly) {
	n := r.N
	tmp := make(Poly, n)
	for i := 0; i < n; i++ {
		if a[i] == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			k := i + j
			p := r.Mod.MulMod(a[i], b[j])
			if k < n {
				tmp[k] = r.Mod.AddMod(tmp[k], p)
			} else {
				tmp[k-n] = r.Mod.SubMod(tmp[k-n], p)
			}
		}
	}
	copy(out, tmp)
}

// Equal reports whether two polynomials are identical.
func (r *Ring) Equal(a, b Poly) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
