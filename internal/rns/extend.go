package rns

import (
	"math/big"

	"heap/internal/ring"
)

// DivRoundByLastModulus divides p (at its current level) by its last limb
// modulus and rounds, dropping that limb: this is the CKKS Rescale kernel.
// If inNTT is true the limbs are in evaluation representation and the
// conversion of the last limb is handled internally. The result has one
// fewer limb and is returned in the same representation as the input.
func (b *Basis) DivRoundByLastModulus(p Poly, inNTT bool) Poly {
	level := p.Level()
	if level < 2 {
		panic("rns: cannot rescale a single-limb polynomial")
	}
	last := level - 1
	rLast := b.Rings[last]
	qL := rLast.Mod.Q

	cL := p.Limbs[last].Copy()
	if inNTT {
		rLast.INTT(cL)
	}

	out := Poly{Limbs: make([]ring.Poly, last)}
	half := qL >> 1
	for i := 0; i < last; i++ {
		ri := b.Rings[i]
		qi := ri.Mod.Q
		qLInv := ri.Mod.InvMod(qL % qi)
		t := ri.NewPoly()
		// Centered remainder of the last limb, re-encoded mod q_i, so the
		// division rounds to nearest rather than flooring.
		for j, v := range cL {
			var r uint64
			if v > half {
				r = qi - (qL-v)%qi
				if r == qi {
					r = 0
				}
			} else {
				r = v % qi
			}
			t[j] = r
		}
		if inNTT {
			ri.NTT(t)
		}
		oi := ri.NewPoly()
		ri.Sub(p.Limbs[i], t, oi)
		ri.MulScalar(oi, qLInv, oi)
		out.Limbs[i] = oi
	}
	return out
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
	// Indexed [level-1][srcLimb][dstLimb]: (Q_level/q_i) mod p_j, with the
	// Shoup companions precomputed once so the per-call inner loop is pure
	// fixed-operand MACs (the §IV-A datapath keeps these constants resident
	// on chip for the same reason).
	qhatModP      [][][]uint64
	qhatModPShoup [][][]uint64
	// identIdx is the identity destination-limb selection 0..dst.Level()-1,
	// shared by every ExtendWith call so the full conversion allocates
	// nothing.
	identIdx []int
}

// NewExtender precomputes conversion tables from every level of src into dst.
func NewExtender(src, dst *Basis) *Extender {
	e := &Extender{src: src, dst: dst}
	maxLevel := src.Level()
	e.qhatInvModQ = make([][]uint64, maxLevel)
	e.qhatModP = make([][][]uint64, maxLevel)
	e.qhatModPShoup = make([][][]uint64, maxLevel)
	for level := 1; level <= maxLevel; level++ {
		bigQ := src.AtLevel(level).Modulus()
		inv := make([]uint64, level)
		modP := make([][]uint64, level)
		modPShoup := make([][]uint64, level)
		for i := 0; i < level; i++ {
			qi := src.Rings[i].Mod.Q
			qhat := new(big.Int).Div(bigQ, new(big.Int).SetUint64(qi))
			qhatModQi := new(big.Int).Mod(qhat, new(big.Int).SetUint64(qi)).Uint64()
			inv[i] = src.Rings[i].Mod.InvMod(qhatModQi)
			row := make([]uint64, dst.Level())
			rowShoup := make([]uint64, dst.Level())
			for j := 0; j < dst.Level(); j++ {
				pj := dst.Rings[j].Mod.Q
				row[j] = new(big.Int).Mod(qhat, new(big.Int).SetUint64(pj)).Uint64()
				rowShoup[j] = dst.Rings[j].Mod.ShoupPrecomp(row[j])
			}
			modP[i] = row
			modPShoup[i] = rowShoup
		}
		e.qhatInvModQ[level-1] = inv
		e.qhatModP[level-1] = modP
		e.qhatModPShoup[level-1] = modPShoup
	}
	e.identIdx = make([]int, dst.Level())
	for i := range e.identIdx {
		e.identIdx[i] = i
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
// the destination basis, writing one limb per destination prime into out.
// out must have dst.Level() limbs. See ExtendSelectedWith.
func (e *Extender) ExtendWith(p Poly, out Poly, sc *ExtendScratch) {
	e.ExtendSelectedWith(p, out, e.identIdx[:out.Level()], sc)
}

// ExtendSelectedWith converts p into a chosen subset of destination limbs:
// out.Limbs[k] receives the residue modulo dst prime dstIdx[k]. This supports
// level-aware key switching, where the target basis is a prefix of Q plus all
// of P. It is allocation-free once the caller-owned sc has reached the source
// level, which is how the key-switch hot path keeps the ModUp kernel off the
// garbage collector.
func (e *Extender) ExtendSelectedWith(p Poly, out Poly, dstIdx []int, sc *ExtendScratch) {
	level := p.Level()
	inv := e.qhatInvModQ[level-1]
	modP := e.qhatModP[level-1]
	modPShoup := e.qhatModPShoup[level-1]
	n := e.src.N

	// y_i = [x_i · qhatInv_i]_{q_i}, shared across all destination limbs.
	ys := sc.grow(level, n)
	for i := 0; i < level; i++ {
		e.src.Rings[i].MulScalar(p.Limbs[i], inv[i], ys[i])
	}
	for jj, j := range dstIdx {
		mod := e.dst.Rings[j].Mod
		oj := out.Limbs[jj][:n]
		// The first term writes oj (the same canonical product a MAC onto a
		// zeroed limb would leave), the rest accumulate.
		mod.MulShoupVec(ys[0][:n], oj, modP[0][j], modPShoup[0][j])
		for i := 1; i < level; i++ {
			// Eagerly canonical accumulation, on purpose: both conditional
			// subtractions inside the MAC lower to branchless conditional
			// moves (scalar) or VPCMPGTQ masks (vector), whereas the lazy
			// alternative (carry the accumulator in [0, 2q) with one
			// subtraction per term plus a canonical sweep per limb) defeats
			// the scalar lowering and measured ~3× slower per term on the
			// reference host — see the modular-kernel ablation in
			// EXPERIMENTS.md. The lazy interval only pays off when it removes
			// work from a longer dependent chain, as in the NTT butterflies.
			mod.MACShoupVec(ys[i][:n], oj, modP[i][j], modPShoup[i][j])
		}
	}
}

// ModDown divides a polynomial represented over the concatenated basis Q‖P
// by P (the special-modulus product) and rounds approximately, returning the
// result over Q. This is the ModDown step completing a hybrid key switch.
type ModDown struct {
	qBasis, pBasis *Basis
	ext            *Extender // P → Q
	pInvModQ       []uint64  // P^{-1} mod q_i
}

// NewModDown precomputes ModDown tables for dividing by ∏ pBasis.
func NewModDown(qBasis, pBasis *Basis) *ModDown {
	md := &ModDown{qBasis: qBasis, pBasis: pBasis, ext: NewExtender(pBasis, qBasis)}
	bigP := pBasis.Modulus()
	md.pInvModQ = make([]uint64, qBasis.Level())
	for i := range md.pInvModQ {
		qi := qBasis.Rings[i].Mod.Q
		pModQi := new(big.Int).Mod(bigP, new(big.Int).SetUint64(qi)).Uint64()
		md.pInvModQ[i] = qBasis.Rings[i].Mod.InvMod(pModQi)
	}
	return md
}

// ModDownScratch holds the per-call intermediates of ModDown.Apply: the
// coefficient-domain copy of the P part, the P→Q extension, and the inner
// conversion scratch. One per worker keeps the ModDown kernel allocation-free.
type ModDownScratch struct {
	cPc, ext Poly
	conv     *ExtendScratch
}

// NewScratch allocates ModDown scratch sized for this converter's bases.
func (md *ModDown) NewScratch() *ModDownScratch {
	return &ModDownScratch{
		cPc:  md.pBasis.NewPoly(),
		ext:  md.qBasis.NewPoly(),
		conv: NewExtendScratch(md.pBasis.Level(), md.pBasis.N),
	}
}

// Apply computes out ≈ round(c / P) mod Q where c is given as cQ (its
// residues modulo the first level limbs of Q, NTT representation) and cP
// (its residues modulo P, NTT representation). out must have level limbs.
func (md *ModDown) Apply(cQ, cP, out Poly) {
	md.ApplyWith(cQ, cP, out, md.NewScratch())
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
	level := lvl(cQ, out)
	cPc := sc.cPc
	for i := range cPc.Limbs {
		copy(cPc.Limbs[i], cP.Limbs[i])
	}
	md.pBasis.INTT(cPc)
	extended := sc.ext.AtLevel(level)
	md.ext.ExtendWith(cPc, extended, sc.conv)
	for i := 0; i < level; i++ {
		ri := md.qBasis.Rings[i]
		copy(out.Limbs[i], cQ.Limbs[i])
		ri.INTT(out.Limbs[i])
		ri.Sub(out.Limbs[i], extended.Limbs[i], out.Limbs[i])
		ri.MulScalar(out.Limbs[i], md.pInvModQ[i], out.Limbs[i])
	}
}

// ApplyWith is Apply with caller-owned scratch; allocation-free.
func (md *ModDown) ApplyWith(cQ, cP, out Poly, sc *ModDownScratch) {
	level := lvl(cQ, out)
	// Move the P-part to coefficient representation and extend it into Q.
	cPc := sc.cPc
	for i := range cPc.Limbs {
		copy(cPc.Limbs[i], cP.Limbs[i])
	}
	md.pBasis.INTT(cPc)
	extended := sc.ext.AtLevel(level)
	md.ext.ExtendWith(cPc, extended, sc.conv)
	for i := 0; i < level; i++ {
		ri := md.qBasis.Rings[i]
		ri.NTT(extended.Limbs[i])
		ri.Sub(cQ.Limbs[i], extended.Limbs[i], out.Limbs[i])
		ri.MulScalar(out.Limbs[i], md.pInvModQ[i], out.Limbs[i])
	}
}
