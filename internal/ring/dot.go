package ring

import "math/bits"

// maxDotTerms is the most terms one dot-product kernel call sums before it
// reduces: k terms each within q/2 + q·2⁻⁴, plus a canonical accumulator, sum
// below 5.5q < 2⁵¹ for k ≤ 8 and q < 2⁴⁷ (DESIGN.md "Vectorized kernels"). A
// longer dot is cut into calls of at most this many terms, each later one
// accumulating onto the last. Every kernel call reads all its terms of a lane
// group before it writes the group, so out may alias any of the first
// maxDotTerms operands (not a later one, which the first call overwrites).
const maxDotTerms = 8

// DotCoeffs sets out = Σ_t a[t] ⊙ b[t] mod q over canonical operands in one
// pass: the word for word result of MulCoeffs on the first pair and
// MulCoeffsAndAdd on each later one, without the intermediate sweeps over out.
// It is the row MAC of a gadget product — the raised digits of one limb
// against the key rows' limbs of one accumulator side. Every operand must be
// at least len(out) long; out may alias one of the first maxDotTerms.
func (r *Ring) DotCoeffs(a, b []Poly, out Poly) { r.dotCoeffs(a, b, out, false) }

func (r *Ring) dotCoeffs(a, b []Poly, out Poly, add bool) {
	if len(a) != len(b) {
		panic("ring: dot product needs as many a as b operands")
	}
	checkDotOperands(a, out)
	checkDotOperands(b, out)
	for first := 0; first < len(a); first += maxDotTerms {
		end := min(first+maxDotTerms, len(a))
		at, bt := a[first:end], b[first:end]
		i := 0
		if r.Mod.vecFMA() {
			i = len(out) &^ 15
			dotCoeffsFMA(out[:i], at, bt, addFlag(add), r.Mod.fmaQ, r.Mod.fmaQInv)
		}
		dotCoeffsScalar(r.Mod, at, bt, out, i, add)
		add = true
	}
}

// checkDotOperands panics unless there is at least one operand and every one
// covers out: the kernels read len(out) words of each through its pointer.
func checkDotOperands(a []Poly, out Poly) {
	if len(a) == 0 {
		panic("ring: dot product of no terms")
	}
	for _, p := range a {
		if len(p) < len(out) {
			panic("ring: dot operand shorter than its output")
		}
	}
}

// addFlag is a kernel's accumulate argument.
func addFlag(add bool) int {
	if add {
		return 1
	}
	return 0
}

// dotCoeffsScalar is DotCoeffs' scalar loop over out[from:]: every product
// is the fixed-shift Barrett of MulCoeffs, summed canonically.
func dotCoeffsScalar(m Modulus, a, b []Poly, out Poly, from int, add bool) {
	q, mu, shift := m.Q, m.BRedMu, m.BRedShift
	for i := from; i < len(out); i++ {
		var s uint64
		if add {
			s = out[i]
		}
		for t := range a {
			hi, lo := bits.Mul64(a[t][i], b[t][i])
			qest, _ := bits.Mul64(hi<<(64-shift)|lo>>shift, mu)
			p := lo - qest*q
			if p >= q {
				p -= q
			}
			if p >= q {
				p -= q
			}
			s += p
			if s >= q {
				s -= q
			}
		}
		out[i] = s
	}
}

// FixedOperands is a vector of fixed operands w_t < q of one ring, prepared
// once for DotFixed: the words with their Shoup companions (the scalar loop)
// and the pairs (w_t, w_t/q) as doubles (the FMA kernel).
type FixedOperands struct {
	w, wShoup []uint64
	wf        []float64
}

// NewFixedOperands prepares w (each reduced mod q) for DotFixed.
func (r *Ring) NewFixedOperands(w []uint64) *FixedOperands {
	f := &FixedOperands{
		w:      make([]uint64, len(w)),
		wShoup: make([]uint64, len(w)),
		wf:     make([]float64, 2*len(w)),
	}
	for t, v := range w {
		v = r.Mod.Reduce(v)
		f.w[t], f.wShoup[t] = v, r.Mod.ShoupPrecomp(v)
		if r.Mod.fmaQ != 0 {
			f.wf[2*t], f.wf[2*t+1] = float64(v), float64(v)/r.Mod.fmaQ
		}
	}
	return f
}

// DotFixed sets out = Σ_t a[t]·w_t mod q in one pass — the word for word
// result of a fixed-operand multiply of a[0] and a MAC of each later term,
// without the intermediate sweeps over out. It is the inner sum of the RNS
// basis conversion (rns.Extender.ExtendLimb), whose a[t] are residues of other
// primes: every a[t][i] must be below 2⁵⁰ (a canonical residue of any modulus
// this tree builds qualifies), and every a[t] at least len(out) long; out may
// alias one of the first maxDotTerms.
func (r *Ring) DotFixed(a []Poly, w *FixedOperands, out Poly) {
	if len(a) != len(w.w) {
		panic("ring: fixed dot product needs one operand per term")
	}
	checkDotOperands(a, out)
	add := false
	for first := 0; first < len(a); first += maxDotTerms {
		end := min(first+maxDotTerms, len(a))
		i := 0
		if r.Mod.vecFMA() {
			i = len(out) &^ 15
			dotFixedFMA(out[:i], a[first:end], w.wf[2*first:2*end], addFlag(add), r.Mod.fmaQ, r.Mod.fmaQInv)
		}
		dotFixedScalar(r.Mod.Q, a[first:end], w.w[first:end], w.wShoup[first:end], out, i, add)
		add = true
	}
}

// dotFixedScalar is DotFixed's scalar loop over out[from:]: every product is
// the Shoup product of MulShoupVec, correct for any operand word, summed
// canonically.
func dotFixedScalar(q uint64, a []Poly, w, wShoup []uint64, out Poly, from int, add bool) {
	for i := from; i < len(out); i++ {
		var s uint64
		if add {
			s = out[i]
		}
		for t, x := range a {
			x := x[i]
			hi, _ := bits.Mul64(x, wShoup[t])
			p := x*w[t] - hi*q
			if p >= q {
				p -= q
			}
			s += p
			if s >= q {
				s -= q
			}
		}
		out[i] = s
	}
}

// SubMulScalar sets out = (a − b)·c mod q for canonical a, b and any c (reduced
// first) in one pass: Sub followed by MulScalar, word for word. It is the last
// step of a ModDown, (x − ext)·P⁻¹. out may alias a or b.
func (r *Ring) SubMulScalar(a, b Poly, c uint64, out Poly) { r.subMulScalar(a, b, c, out, false) }

// SubMulScalarAndAdd sets out += (a − b)·c mod q for a canonical out: the ModDown
// that finishes into the accumulator it updates. out may alias a or b.
func (r *Ring) SubMulScalarAndAdd(a, b Poly, c uint64, out Poly) {
	r.subMulScalar(a, b, c, out, true)
}

func (r *Ring) subMulScalar(a, b Poly, c uint64, out Poly, add bool) {
	m := &r.Mod
	q := m.Q
	c = m.Reduce(c)
	cShoup := m.ShoupPrecomp(c)
	a, b = a[:len(out)], b[:len(out)]
	i := 0
	if m.vecFMA() {
		i = len(out) &^ 3
		cf := float64(c)
		subMulScalarFMA(out[:i], a[:i], b[:i], cf, cf/m.fmaQ, m.fmaQ, m.fmaQInv, addFlag(add))
	}
	for ; i < len(out); i++ {
		d := a[i] - b[i]
		if d > a[i] {
			d += q
		}
		hi, _ := bits.Mul64(d, cShoup)
		v := d*c - hi*q
		if v >= q {
			v -= q
		}
		if add {
			v += out[i]
			if v >= q {
				v -= q
			}
		}
		out[i] = v
	}
}
