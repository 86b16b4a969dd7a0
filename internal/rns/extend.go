package rns

import (
	"math/big"

	"heap/internal/ring"
)

// DivRoundByLastModulus divides p (at its current level) by its last limb
// modulus and rounds, dropping that limb: this is the CKKS Rescale kernel.
// If inNTT is true the limbs are in evaluation representation and the
// conversion of the last limb is handled internally. The result has one
// fewer limb and is returned in the same representation as the input. It is
// LastLimbCoeffs followed by DivRoundLimb over the remaining limbs; a caller
// with cores to spare runs those limb steps side by side.
func (b *Basis) DivRoundByLastModulus(p Poly, inNTT bool) Poly {
	last := p.Level() - 1
	cL := make(ring.Poly, b.N)
	b.LastLimbCoeffs(p, inNTT, cL)
	out := NewPolySlab(last, b.N)
	for i := 0; i < last; i++ {
		b.DivRoundLimb(i, last, p.Limbs[i], cL, inNTT, out.Limbs[i])
	}
	return out
}

// NewPolySlab allocates a zero polynomial of level limbs of n words each over
// one backing array — one allocation for the words, where Basis.NewPoly makes
// one per limb.
func NewPolySlab(level, n int) Poly {
	slab := make([]uint64, level*n)
	limbs := make([]ring.Poly, level)
	for i := range limbs {
		limbs[i] = slab[i*n : (i+1)*n : (i+1)*n]
	}
	return Poly{Limbs: limbs}
}

// LastLimbCoeffs writes the coefficient representation of p's last limb into
// cL: the shared first step of a rescale, which every DivRoundLimb reads.
func (b *Basis) LastLimbCoeffs(p Poly, inNTT bool, cL ring.Poly) {
	level := p.Level()
	if level < 2 {
		panic("rns: cannot rescale a single-limb polynomial")
	}
	if inNTT {
		b.Rings[level-1].INTTInto(cL, p.Limbs[level-1])
	} else {
		copy(cL, p.Limbs[level-1])
	}
}

// DivRoundLimb is the rescale of limb i by the modulus of limb last:
// out = (pi − [cL]_{q_i}) · q_last⁻¹ mod q_i, with cL (LastLimbCoeffs) taken
// as a centred remainder so the division rounds to nearest instead of
// flooring. It writes out only (which may not alias pi or cL), so the limbs of
// one rescale are independent tasks.
func (b *Basis) DivRoundLimb(i, last int, pi, cL ring.Poly, inNTT bool, out ring.Poly) {
	ri := b.Rings[i]
	qi, qL := ri.Mod.Q, b.Rings[last].Mod.Q
	half := qL >> 1
	out = out[:len(cL)]
	if qL < 2*qi {
		// The chain's primes are one size, so v < q_L < 2·q_i: one masked
		// subtraction reduces v, a second under the v > half mask subtracts
		// q_L mod q_i (v − q_L is the centred remainder), and a third re-adds
		// q_i on borrow. Moduli are below 2^63, so the sign bit of a wrapped
		// difference is the borrow.
		qLModQi := qL
		if qL >= qi {
			qLModQi -= qi
		}
		for j, v := range cL {
			r := v - qi
			r += qi & -(r >> 63)
			r -= qLModQi & -((half - v) >> 63)
			r += qi & -(r >> 63)
			out[j] = r
		}
	} else {
		for j, v := range cL {
			if v > half {
				r := qi - (qL-v)%qi
				if r == qi {
					r = 0
				}
				out[j] = r
			} else {
				out[j] = v % qi
			}
		}
	}
	if inNTT {
		ri.NTT(out)
	}
	ri.SubMulScalar(pi, out, ri.Mod.InvMod(qL%qi), out)
}

// Extender implements the fast (approximate) RNS basis conversion of
// Halevi-Polyakov-Shoup: residues of x modulo a source basis Q are converted
// to residues modulo a disjoint destination basis P, producing x + u·Q for a
// small u < level. This is the ModUp basis-conversion kernel of the CKKS
// KeySwitch datapath (§IV-A "basis conversion operation ... during ModUp and
// ModDown").
type Extender struct {
	src, dst *Basis

	// Indexed [level-1][srcLimb]: ((Q_level/q_i)^{-1}) mod q_i.
	qhatInvModQ [][]uint64
	// Indexed [level-1][dstLimb]: the level terms (Q_level/q_i) mod p_j of
	// destination limb j's sum, prepared once for the fixed-operand dot
	// product, so a per-call limb is one pass (the §IV-A datapath keeps these
	// constants resident on chip for the same reason).
	qhatModP [][]*ring.FixedOperands
}

// NewExtender precomputes conversion tables from every level of src into dst.
func NewExtender(src, dst *Basis) *Extender {
	e := &Extender{src: src, dst: dst}
	maxLevel := src.Level()
	e.qhatInvModQ = make([][]uint64, maxLevel)
	e.qhatModP = make([][]*ring.FixedOperands, maxLevel)
	for level := 1; level <= maxLevel; level++ {
		bigQ := src.AtLevel(level).Modulus()
		inv := make([]uint64, level)
		qhat := make([]*big.Int, level)
		for i := 0; i < level; i++ {
			qi := src.Rings[i].Mod.Q
			qhat[i] = new(big.Int).Div(bigQ, new(big.Int).SetUint64(qi))
			qhatModQi := new(big.Int).Mod(qhat[i], new(big.Int).SetUint64(qi)).Uint64()
			inv[i] = src.Rings[i].Mod.InvMod(qhatModQi)
		}
		modP := make([]*ring.FixedOperands, dst.Level())
		for j, rj := range dst.Rings {
			w := make([]uint64, level)
			for i := range w {
				w[i] = new(big.Int).Mod(qhat[i], new(big.Int).SetUint64(rj.Mod.Q)).Uint64()
			}
			modP[j] = rj.NewFixedOperands(w)
		}
		e.qhatInvModQ[level-1] = inv
		e.qhatModP[level-1] = modP
	}
	return e
}

// ExtendScratch holds the shared intermediate y_i polynomials of the basis
// conversion, so a worker reusing one across calls allocates nothing. One
// scratch serves extenders of any source level up to its capacity (it grows
// lazily on first use at a larger level).
type ExtendScratch struct {
	ys []ring.Poly
	n  int
}

// NewExtendScratch allocates conversion scratch for up to maxLevel source
// limbs of degree-n polynomials.
func NewExtendScratch(maxLevel, n int) *ExtendScratch {
	sc := &ExtendScratch{ys: make([]ring.Poly, maxLevel), n: n}
	for i := range sc.ys {
		sc.ys[i] = make(ring.Poly, n)
	}
	return sc
}

func (sc *ExtendScratch) grow(level, n int) []ring.Poly {
	for len(sc.ys) < level {
		sc.ys = append(sc.ys, make(ring.Poly, n))
	}
	return sc.ys[:level]
}

// ExtendWith converts p (coefficient representation, any level of src) into
// the destination basis, writing limb j of out modulo destination prime j;
// out may have fewer limbs than dst. It is the two steps of the conversion in
// sequence — ScaleLimb over the source limbs, then ExtendLimb over the
// destination limbs — and allocation-free once the caller-owned sc has
// reached the source level.
func (e *Extender) ExtendWith(p Poly, out Poly, sc *ExtendScratch) {
	level := p.Level()
	ys := sc.grow(level, e.src.N)
	for i := 0; i < level; i++ {
		e.ScaleLimb(level, i, p.Limbs[i], ys[i])
	}
	for j := range out.Limbs {
		e.ExtendLimb(ys, j, out.Limbs[j])
	}
}

// ScaleLimb forms the intermediate every destination limb shares,
// y_i = [x_i · q̂_i⁻¹]_{q_i} with q̂_i = (∏ of the first level source primes)/q_i,
// for source limb i. y may be x. The source limbs are independent of each
// other, so a caller may form them concurrently.
func (e *Extender) ScaleLimb(level, i int, x, y ring.Poly) {
	e.src.Rings[i].MulScalar(x, e.qhatInvModQ[level-1][i], y)
}

// ExtendLimb writes destination limb j from the len(ys) scaled source limbs:
// out = Σ_i y_i · q̂_i mod dst prime j, one fixed-operand dot product over the
// source limbs. It reads ys and writes out only, so destination limbs are
// independent tasks once every y_i exists — which is how the key switch
// raises its digits limb by limb, skipping the destination limbs it does not
// need (level-aware switching targets a prefix of Q plus all of P).
func (e *Extender) ExtendLimb(ys []ring.Poly, j int, out ring.Poly) {
	e.dst.Rings[j].DotFixed(ys, e.qhatModP[len(ys)-1][j], out[:e.src.N])
}

// ModDown divides a polynomial represented over the concatenated basis Q‖P
// by P (the special-modulus product) and rounds approximately, returning the
// result over Q. This is the ModDown step completing a hybrid key switch.
type ModDown struct {
	qBasis, pBasis *Basis
	ext            *Extender // P → Q
	pInvModQ       []uint64  // P^{-1} mod q_i
	pModQ          []uint64  // P mod q_i
	// rescale[last][i], i < last, holds the constants of Q limb i in a ModDown
	// that also divides by q_last (RescaleLimb).
	rescale [][]rescaleConsts
}

// rescaleConsts are one limb's constants of a rescaling ModDown, all mod q_i:
// the |P|+2 fixed operands of E (the P→Q extension weights, P, and
// −P·q_last), and the three of the output (q_last⁻¹, and ±(P·q_last)⁻¹).
type rescaleConsts struct {
	e, out *ring.FixedOperands
}

// NewModDown precomputes ModDown tables for dividing by ∏ pBasis, and for
// dividing by ∏ pBasis times any one Q limb above the first.
func NewModDown(qBasis, pBasis *Basis) *ModDown {
	md := &ModDown{qBasis: qBasis, pBasis: pBasis, ext: NewExtender(pBasis, qBasis)}
	bigP := pBasis.Modulus()
	mod := func(x *big.Int, q uint64) uint64 {
		return new(big.Int).Mod(x, new(big.Int).SetUint64(q)).Uint64()
	}
	md.pInvModQ = make([]uint64, qBasis.Level())
	md.pModQ = make([]uint64, qBasis.Level())
	for i, ri := range qBasis.Rings {
		md.pModQ[i] = mod(bigP, ri.Mod.Q)
		md.pInvModQ[i] = ri.Mod.InvMod(md.pModQ[i])
	}
	// extW[i] are the P→Q extension weights P/p_k mod q_i, to which a
	// rescaling ModDown appends two of its own.
	extW := make([][]uint64, qBasis.Level())
	for i, ri := range qBasis.Rings {
		for _, pk := range pBasis.Rings {
			extW[i] = append(extW[i], mod(new(big.Int).Div(bigP, new(big.Int).SetUint64(pk.Mod.Q)), ri.Mod.Q))
		}
	}
	md.rescale = make([][]rescaleConsts, qBasis.Level())
	for last := 1; last < qBasis.Level(); last++ {
		qLast := qBasis.Rings[last].Mod.Q
		md.rescale[last] = make([]rescaleConsts, last)
		for i, ri := range qBasis.Rings[:last] {
			m := ri.Mod
			pq := m.MulMod(md.pModQ[i], qLast%m.Q)
			pqInv := m.InvMod(pq)
			md.rescale[last][i] = rescaleConsts{
				e:   ri.NewFixedOperands(append(extW[i][:len(extW[i]):len(extW[i])], md.pModQ[i], m.SubMod(0, pq))),
				out: ri.NewFixedOperands([]uint64{m.InvMod(qLast % m.Q), pqInv, m.SubMod(0, pqInv)}),
			}
		}
	}
	return md
}

// ModDownScratch holds the intermediates of one ModDown: the scaled
// coefficient-form P part every Q limb reads, and one limb per Q limb for the
// P→Q extension. One per worker keeps the ModDown kernel allocation-free; two
// ModDowns whose limb steps interleave need one each. A rescaling ModDown
// also keeps its last limb's centred coefficients here, in two more limbs
// allocated on its first use.
type ModDownScratch struct {
	ys  []ring.Poly
	ext Poly
	// terms is ys followed by the rescale's z and its centring bit: the
	// operands of RescaleLimb's one dot product.
	terms []ring.Poly
}

// NewScratch allocates ModDown scratch sized for this converter's bases.
func (md *ModDown) NewScratch() *ModDownScratch {
	nP := md.pBasis.Level()
	terms := append(md.pBasis.NewPoly().Limbs, nil, nil)
	return &ModDownScratch{ys: terms[:nP:nP], ext: md.qBasis.NewPoly(), terms: terms}
}

// ApplyWith computes out ≈ round(c / P) mod Q where c is given as cQ (its
// residues modulo the first level limbs of Q, NTT representation) and cP
// (its residues modulo P, NTT representation). out must have level limbs.
// Allocation-free with caller-owned scratch.
func (md *ModDown) ApplyWith(cQ, cP, out Poly, sc *ModDownScratch) {
	md.apply(cQ, cP, out, false, sc)
}

// ApplyCoeffWith is ApplyWith emitting the result in coefficient
// representation: instead of NTT-transforming the extended P-part to meet cQ
// in the evaluation domain, it INTTs each cQ limb and subtracts in the
// coefficient domain — the same number of limb transforms, but the output
// needs no separate INTT. Because the inverse transform is linear and every
// step emits canonical residues, the result is bit-identical to
// INTT(ApplyWith(...)): this is what lets the repack trace carry its running
// C1 in the coefficient domain across steps (hoisting the per-step INTT out
// of the key-switch) without perturbing a single bit of the output.
func (md *ModDown) ApplyCoeffWith(cQ, cP, out Poly, sc *ModDownScratch) {
	md.apply(cQ, cP, out, true, sc)
}

// apply is the ModDown as its two limb steps in sequence.
func (md *ModDown) apply(cQ, cP, out Poly, coeff bool, sc *ModDownScratch) {
	for k := range cP.Limbs {
		md.ScaleLimb(k, cP.Limbs[k], sc)
	}
	for i, level := 0, lvl(cQ, out); i < level; i++ {
		md.FinishLimb(i, cQ.Limbs[i], out.Limbs[i], coeff, false, sc)
	}
}

// ScaleLimb is the ModDown's step for P limb k: cPk (NTT representation) goes
// to coefficients and is scaled into the shared y_k of the P→Q extension, in
// the scratch — one pass, the scaling folded into the inverse transform's
// N⁻¹. The P limbs are independent tasks; every one must be done
// before the first FinishLimb.
func (md *ModDown) ScaleLimb(k int, cPk ring.Poly, sc *ModDownScratch) {
	md.pBasis.Rings[k].INTTScaleInto(sc.ys[k], cPk, md.ext.qhatInvModQ[len(sc.ys)-1][k])
}

// FinishLimb is the ModDown's step for Q limb i: extend the P part into limb
// i, subtract it from cQi (NTT representation) and multiply by P⁻¹ — meeting
// in the evaluation domain (one forward transform of the extension), or, with
// coeff set, in the coefficient domain (one inverse transform of cQi), which
// emits INTT of the other form's output bit for bit. The subtraction and the
// multiplication are one pass (ring.SubMulScalar). With add set the result is
// added to out instead of written — out ← out + (x − ext)·P⁻¹, a ModDown that
// finishes into the polynomial it updates — and in the coefficient domain cQi
// is then consumed: it is transformed in place. It writes out, limb i of the
// scratch and (coeff and add) cQi only, so the Q limbs are independent tasks.
// out may not alias cQi.
func (md *ModDown) FinishLimb(i int, cQi, out ring.Poly, coeff, add bool, sc *ModDownScratch) {
	ri := md.qBasis.Rings[i]
	ext := sc.ext.Limbs[i]
	md.ext.ExtendLimb(sc.ys, i, ext)
	x := cQi
	switch {
	case !coeff:
		ri.NTT(ext)
	case add:
		ri.INTT(cQi)
	default:
		ri.INTTInto(out, cQi)
		x = out
	}
	if add {
		ri.SubMulScalarAndAdd(x, ext, md.pInvModQ[i], out)
	} else {
		ri.SubMulScalar(x, ext, md.pInvModQ[i], out)
	}
}

// A rescaling ModDown divides by P·q_last at once: it is the ModDown of a
// polynomial c + x/P (c over Q, x over Q‖P — a relinearization that adds onto
// the tensor's c) followed by the rescale by q_last, word for word, with its
// steps merged so that no limb is transformed twice. With z the coefficients
// of limb last of the ModDown's result, which the rescale's rounding reads
// centred, the output limb i < last is
//
//	c_i·q_last⁻¹ + (x_i − NTT(E_i))·(P·q_last)⁻¹,  E_i = ext_P(i) + P·[z]_{q_i},
//
// every step exact on canonical residues. The steps are LiftLastLimb and
// ScaleLimb (any order, as their limbs are done), then CentreLimb, then
// RescaleLimb per limb (DESIGN.md "Rescale inside the ModDown").

// LiftLastLimb is the rescaling ModDown's first step for limb last: x ← INTT(x
// + c·P), both NTT on entry, which is the limb of the ModDown's result times P
// before the extension is subtracted. c is consumed: it is scaled in place.
func (md *ModDown) LiftLastLimb(last int, c, x ring.Poly) {
	r := md.qBasis.Rings[last]
	r.MulScalar(c, md.pModQ[last], c)
	r.Add(x, c, x)
	r.INTT(x)
}

// CentreLimb is the rescaling ModDown's step for limb last, once every P limb
// is scaled: z = (x − ext_P(last))·P⁻¹ from LiftLastLimb's x, and the bit
// z > q_last/2 that centres it as DivRoundLimb does, both kept in sc for
// RescaleLimb.
func (md *ModDown) CentreLimb(last int, x ring.Poly, sc *ModDownScratch) {
	nP, n := len(sc.ys), len(x)
	if sc.terms[nP] == nil {
		sc.terms[nP], sc.terms[nP+1] = make(ring.Poly, n), make(ring.Poly, n)
	}
	z, bit := sc.terms[nP], sc.terms[nP+1]
	r := md.qBasis.Rings[last]
	ext := sc.ext.Limbs[last]
	md.ext.ExtendLimb(sc.ys, last, ext)
	r.SubMulScalar(x, ext, md.pInvModQ[last], z)
	half := r.Mod.Q >> 1
	for j, v := range z {
		bit[j] = (half - v) >> 63
	}
}

// RescaleLimb is the rescaling ModDown's step for Q limb i < last, once
// CentreLimb is done: out = c·q_last⁻¹ + (x − NTT(E))·(P·q_last)⁻¹ with c and x
// (NTT) the limb's, E = ext_P(i) + P·z − P·q_last·bit. Each side of the
// transform is one dot product: |P| + 2 terms form E, three form out. It
// writes out and limb i of the scratch only, so the limbs below last are
// independent tasks. out may not alias c or x.
func (md *ModDown) RescaleLimb(i, last int, c, x, out ring.Poly, sc *ModDownScratch) {
	r := md.qBasis.Rings[i]
	k := &md.rescale[last][i]
	e := sc.ext.Limbs[i]
	r.DotFixed(sc.terms, k.e, e)
	r.NTT(e)
	r.DotFixed([]ring.Poly{c, x, e}, k.out, out)
}
