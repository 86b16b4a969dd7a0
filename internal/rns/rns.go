// Package rns implements the residue-number-system (RNS) layer of the
// library: polynomials over a chain of word-sized prime moduli
// Q = q_0·q_1·…·q_{L-1}, CRT reconstruction, rescaling (division and
// rounding by the last limb), and fast basis extension (the ModUp/ModDown
// basis-conversion operations used by CKKS key switching, §II-A and §IV-A
// of the paper).
package rns

import (
	"math/big"

	"heap/internal/ring"
)

// Basis is an ordered chain of NTT-friendly prime moduli sharing one ring
// degree. Slicing a Basis (dropping trailing limbs) yields the basis of a
// rescaled ciphertext level.
type Basis struct {
	Rings []*ring.Ring
	LogN  int
	N     int
}

// NewBasis builds a basis over the given primes at ring degree 2^logN.
func NewBasis(logN int, primes []uint64) *Basis {
	b := &Basis{LogN: logN, N: 1 << logN}
	b.Rings = make([]*ring.Ring, len(primes))
	for i, q := range primes {
		b.Rings[i] = ring.NewRing(logN, q)
	}
	return b
}

// Level returns the number of limbs.
func (b *Basis) Level() int { return len(b.Rings) }

// AtLevel returns the sub-basis consisting of the first level limbs.
func (b *Basis) AtLevel(level int) *Basis {
	return &Basis{Rings: b.Rings[:level], LogN: b.LogN, N: b.N}
}

// Modulus returns Q = ∏ q_i as a big integer.
func (b *Basis) Modulus() *big.Int {
	q := big.NewInt(1)
	for _, r := range b.Rings {
		q.Mul(q, new(big.Int).SetUint64(r.Mod.Q))
	}
	return q
}

// Poly is an RNS polynomial: one residue polynomial per limb.
type Poly struct {
	Limbs []ring.Poly
}

// NewPoly allocates a zero polynomial over the full basis.
func (b *Basis) NewPoly() Poly {
	limbs := make([]ring.Poly, b.Level())
	for i := range limbs {
		limbs[i] = make(ring.Poly, b.N)
	}
	return Poly{Limbs: limbs}
}

// Level returns the number of limbs of p.
func (p Poly) Level() int { return len(p.Limbs) }

// Copy returns a deep copy.
func (p Poly) Copy() Poly {
	limbs := make([]ring.Poly, len(p.Limbs))
	for i := range limbs {
		limbs[i] = p.Limbs[i].Copy()
	}
	return Poly{Limbs: limbs}
}

// AtLevel returns a view of p truncated to the first level limbs (shared
// backing storage).
func (p Poly) AtLevel(level int) Poly { return Poly{Limbs: p.Limbs[:level]} }

// Zero clears all limbs.
func (p Poly) Zero() {
	for i := range p.Limbs {
		p.Limbs[i].Zero()
	}
}

// IsZero reports whether every coefficient of every limb is zero. It stops at
// the first non-zero word, so on anything but the zero polynomial it costs one
// comparison.
func (p Poly) IsZero() bool {
	for _, limb := range p.Limbs {
		for _, v := range limb {
			if v != 0 {
				return false
			}
		}
	}
	return true
}

// lvl returns the smallest level among the operands, so binary operations
// naturally act at the common level.
func lvl(ps ...Poly) int {
	m := len(ps[0].Limbs)
	for _, p := range ps[1:] {
		if len(p.Limbs) < m {
			m = len(p.Limbs)
		}
	}
	return m
}

// NTT transforms every limb to evaluation representation.
func (b *Basis) NTT(p Poly) {
	for i := 0; i < p.Level(); i++ {
		b.Rings[i].NTT(p.Limbs[i])
	}
}

// INTT transforms every limb back to coefficient representation.
func (b *Basis) INTT(p Poly) {
	for i := 0; i < p.Level(); i++ {
		b.Rings[i].INTT(p.Limbs[i])
	}
}

// Add sets out = a + b limbwise at the common level.
func (b *Basis) Add(a, c, out Poly) {
	for i, n := 0, lvl(a, c, out); i < n; i++ {
		b.Rings[i].Add(a.Limbs[i], c.Limbs[i], out.Limbs[i])
	}
}

// Sub sets out = a - b limbwise.
func (b *Basis) Sub(a, c, out Poly) {
	for i, n := 0, lvl(a, c, out); i < n; i++ {
		b.Rings[i].Sub(a.Limbs[i], c.Limbs[i], out.Limbs[i])
	}
}

// Neg sets out = -a limbwise.
func (b *Basis) Neg(a, out Poly) {
	for i, n := 0, lvl(a, out); i < n; i++ {
		b.Rings[i].Neg(a.Limbs[i], out.Limbs[i])
	}
}

// MulCoeffs sets out = a ⊙ c limbwise (NTT-domain product).
func (b *Basis) MulCoeffs(a, c, out Poly) {
	for i, n := 0, lvl(a, c, out); i < n; i++ {
		b.Rings[i].MulCoeffs(a.Limbs[i], c.Limbs[i], out.Limbs[i])
	}
}

// AutomorphismNTT applies X→X^g limbwise in NTT representation using the
// per-limb-independent slot permutation.
func (b *Basis) AutomorphismNTT(a Poly, perm []uint64, out Poly) {
	for i, n := 0, lvl(a, out); i < n; i++ {
		b.Rings[i].AutomorphismNTT(a.Limbs[i], perm, out.Limbs[i])
	}
}

// SetBigCoeffs writes big-integer coefficients (interpreted mod Q) into all
// limbs of p (coefficient representation).
func (b *Basis) SetBigCoeffs(coeffs []*big.Int, p Poly) {
	for i := 0; i < p.Level(); i++ {
		q := new(big.Int).SetUint64(b.Rings[i].Mod.Q)
		t := new(big.Int)
		for j, c := range coeffs {
			t.Mod(c, q)
			p.Limbs[i][j] = t.Uint64()
		}
	}
}

// SetSigned writes small signed coefficients into all limbs.
func (b *Basis) SetSigned(v []int64, p Poly) {
	for i := 0; i < p.Level(); i++ {
		ring.SignedToPoly(b.Rings[i], v, p.Limbs[i])
	}
}

// CRTReconstruct returns the coefficients of p (coefficient representation)
// as big integers in [0, Q), where Q is the product of the limbs of p.
func (b *Basis) CRTReconstruct(p Poly) []*big.Int {
	level := p.Level()
	sub := b.AtLevel(level)
	bigQ := sub.Modulus()
	// Precompute qhat_i = Q/q_i and qhatInv_i = qhat_i^{-1} mod q_i.
	out := make([]*big.Int, b.N)
	for j := range out {
		out[j] = new(big.Int)
	}
	tmp := new(big.Int)
	for i := 0; i < level; i++ {
		qi := b.Rings[i].Mod.Q
		qhat := new(big.Int).Div(bigQ, new(big.Int).SetUint64(qi))
		qhatModQi := new(big.Int).Mod(qhat, new(big.Int).SetUint64(qi)).Uint64()
		qhatInv := b.Rings[i].Mod.InvMod(qhatModQi)
		for j := 0; j < b.N; j++ {
			c := b.Rings[i].Mod.MulMod(p.Limbs[i][j], qhatInv)
			tmp.SetUint64(c)
			tmp.Mul(tmp, qhat)
			out[j].Add(out[j], tmp)
		}
	}
	for j := range out {
		out[j].Mod(out[j], bigQ)
	}
	return out
}

// CRTReconstructCentered is CRTReconstruct with coefficients mapped to the
// centered interval (-Q/2, Q/2].
func (b *Basis) CRTReconstructCentered(p Poly) []*big.Int {
	out := b.CRTReconstruct(p)
	bigQ := b.AtLevel(p.Level()).Modulus()
	half := new(big.Int).Rsh(bigQ, 1)
	for _, c := range out {
		if c.Cmp(half) > 0 {
			c.Sub(c, bigQ)
		}
	}
	return out
}

// Equal reports limbwise equality at the common level.
func (b *Basis) Equal(a, c Poly) bool {
	if a.Level() != c.Level() {
		return false
	}
	for i := range a.Limbs {
		if !b.Rings[i].Equal(a.Limbs[i], c.Limbs[i]) {
			return false
		}
	}
	return true
}
