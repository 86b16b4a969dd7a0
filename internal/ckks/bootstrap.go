package ckks

import (
	"math"
	"math/cmplx"

	"heap/internal/rlwe"
)

// BootstrapConfig tunes the conventional CKKS bootstrapping pipeline of
// Figure 1(a) — the baseline HEAP's scheme-switching approach replaces.
type BootstrapConfig struct {
	// K bounds the modular-reduction interval: the wrap-around polynomial I
	// in m + q0·I must satisfy |I| ≤ K (K ≈ O(√N) for ternary secrets).
	K int
	// R is the number of angle-doubling squarings; the Taylor expansion of
	// exp(iθ) is evaluated on |θ| ≤ 2π(K+1)/2^R.
	R int
	// TaylorDeg is the degree of the exp Taylor expansion (must be 7).
	TaylorDeg int
}

// DefaultBootstrapConfig matches the precision analysis in DESIGN.md.
func DefaultBootstrapConfig() BootstrapConfig { return BootstrapConfig{K: 32, R: 10, TaylorDeg: 7} }

// Bootstrapper implements conventional CKKS bootstrapping:
// ModRaise → CoeffToSlot (homomorphic DFT) → EvalMod (sine evaluation via
// complex exponential Taylor series + angle doubling) → SlotToCoeff.
// It consumes 8 + Cfg.R limbs — CoeffToSlot, input scaling, four for the exp
// Taylor series, R squarings, sine extraction and SlotToCoeff — and requires
// the full N/2 slots.
type Bootstrapper struct {
	Params *Parameters
	Ev     *Evaluator
	Cfg    BootstrapConfig

	c2sM0, c2sM0c, c2sM1, c2sM1c *LinearTransform
	s2cS0, s2cS1                 *LinearTransform
}

// BootstrapMatrices builds the four CoeffToSlot and two SlotToCoeff
// matrices by numerically probing the encoder — immune to index-convention
// drift between the FFT and the canonical embedding.
func bootstrapMatrices(enc *Encoder, params *Parameters) (m0, m0c, m1, m1c, s0, s1 [][]complex128) {
	n := params.N()
	half := n / 2
	alloc := func() [][]complex128 {
		m := make([][]complex128, half)
		for i := range m {
			m[i] = make([]complex128, half)
		}
		return m
	}
	m0, m0c, m1, m1c, s0, s1 = alloc(), alloc(), alloc(), alloc(), alloc(), alloc()

	// CoeffToSlot: probe z = e_l and z = i·e_l through the encode direction
	// (slot vector → real coefficient vector) and solve for the z and
	// conj(z) matrix pair.
	vals := make([]complex128, half)
	for l := 0; l < half; l++ {
		for i := range vals {
			vals[i] = 0
		}
		vals[l] = 1
		enc.specialInvFFT(vals)
		w0 := make([]complex128, half)
		w0i := make([]complex128, half)
		for j := 0; j < half; j++ {
			w0[j] = complex(real(vals[j]), 0)
			w0i[j] = complex(imag(vals[j]), 0)
		}
		for i := range vals {
			vals[i] = 0
		}
		vals[l] = complex(0, 1)
		enc.specialInvFFT(vals)
		for j := 0; j < half; j++ {
			wp := complex(real(vals[j]), 0)
			wpi := complex(imag(vals[j]), 0)
			// col(M) = (w − i·w')/2 ; col(Mc) = (w + i·w')/2
			m0[j][l] = (w0[j] - complex(0, 1)*wp) / 2
			m0c[j][l] = (w0[j] + complex(0, 1)*wp) / 2
			m1[j][l] = (w0i[j] - complex(0, 1)*wpi) / 2
			m1c[j][l] = (w0i[j] + complex(0, 1)*wpi) / 2
		}
	}

	// SlotToCoeff: column k of S0 is the slot vector of the monomial X^k,
	// column k of S1 that of X^{k+N/2}.
	for k := 0; k < half; k++ {
		for i := range vals {
			vals[i] = 0
		}
		vals[k] = 1 // coefficient k real part
		enc.specialFFT(vals)
		for j := 0; j < half; j++ {
			s0[j][k] = vals[j]
		}
		for i := range vals {
			vals[i] = 0
		}
		vals[k] = complex(0, 1) // coefficient k+N/2 rides the imaginary part
		enc.specialFFT(vals)
		for j := 0; j < half; j++ {
			s1[j][k] = vals[j]
		}
	}
	return
}

// NewBootstrapper precomputes the DFT linear transforms. The evaluator must
// hold Galois keys for BootstrapRotations plus conjugation and the
// relinearization key.
func NewBootstrapper(params *Parameters, enc *Encoder, ev *Evaluator, cfg BootstrapConfig) *Bootstrapper {
	if params.Slots != params.N()/2 {
		panic("ckks: conventional bootstrapping requires full slot packing")
	}
	bt := &Bootstrapper{Params: params, Ev: ev, Cfg: cfg}
	m0, m0c, m1, m1c, s0, s1 := bootstrapMatrices(enc, params)
	slots := params.Slots
	level := params.MaxLevel()
	scale := params.DefaultScale
	mk := func(m [][]complex128) *LinearTransform {
		return NewLinearTransform(enc, func(r, c int) complex128 { return m[r][c] }, slots, level, scale)
	}
	bt.c2sM0, bt.c2sM0c, bt.c2sM1, bt.c2sM1c = mk(m0), mk(m0c), mk(m1), mk(m1c)
	bt.s2cS0, bt.s2cS1 = mk(s0), mk(s1)
	return bt
}

// BootstrapRotations returns the rotation indices the pipeline needs
// (generate Galois keys for these plus conjugation).
func BootstrapRotations(params *Parameters) []int {
	// All six transforms share the BSGS layout of a dense slots×slots
	// matrix: baby steps 1..g−1 and giant steps g, 2g, ….
	slots := params.Slots
	g := 1 << (bitsLen(slots) / 2)
	seen := map[int]bool{}
	for b := 1; b < g; b++ {
		seen[b] = true
	}
	for a := g; a < slots; a += g {
		seen[a] = true
	}
	out := make([]int, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	return out
}

// modRaise reinterprets the centered level-1 residues modulo the full
// modulus chain: the phase becomes m + q0·I for a small integer polynomial I.
func (bt *Bootstrapper) modRaise(ct *rlwe.Ciphertext) *rlwe.Ciphertext {
	p := bt.Params
	if ct.Level() != 1 {
		panic("ckks: bootstrap input must be at level 1")
	}
	b1 := p.QBasis.AtLevel(1)
	c0 := ct.C0.Copy()
	c1 := ct.C1.Copy()
	if ct.IsNTT {
		b1.INTT(c0)
		b1.INTT(c1)
	}
	level := p.MaxLevel()
	bL := p.QBasis.AtLevel(level)
	out := rlwe.NewCiphertext(p.Parameters, level)
	q0 := p.Q[0]
	lift := func(src, dst []uint64, ringIdx int) {
		q := p.Q[ringIdx]
		for j, v := range src {
			if v > q0/2 { // centered lift
				dst[j] = q - (q0-v)%q
				if dst[j] == q {
					dst[j] = 0
				}
			} else {
				dst[j] = v % q
			}
		}
	}
	for i := 0; i < level; i++ {
		lift(c0.Limbs[0], out.C0.Limbs[i], i)
		lift(c1.Limbs[0], out.C1.Limbs[i], i)
	}
	bL.NTT(out.C0)
	bL.NTT(out.C1)
	out.Scale = ct.Scale
	return out
}

// evalMod homomorphically evaluates x ↦ q0/(2π)·sin(2πx/q0) on slot values
// holding (m + q0·I)/Δ, returning values m/Δ — the approximate modular
// reduction at the heart of conventional bootstrapping.
func (bt *Bootstrapper) evalMod(t *rlwe.Ciphertext) *rlwe.Ciphertext {
	ev := bt.Ev
	p := bt.Params
	delta := p.DefaultScale
	q0 := float64(p.Q[0])
	twoPow := math.Exp2(float64(bt.Cfg.R))

	// θ = 2π·(m + q0·I)/(q0·2^R), |θ| ≤ 2π(K+1)/2^R.
	theta := ev.MulConstToScale(t, complex(2*math.Pi*delta/(q0*twoPow), 0), delta)

	// exp(iθ) by a degree-7 Taylor series, BSGS-split as
	// (c0+c1θ+c2θ²+c3θ³) + θ⁴·(c4+c5θ+c6θ²+c7θ³).
	if bt.Cfg.TaylorDeg != 7 {
		panic("ckks: evalMod implements a degree-7 Taylor expansion")
	}
	coef := make([]complex128, 8)
	fact := 1.0
	for k := 0; k < 8; k++ {
		if k > 0 {
			fact *= float64(k)
		}
		coef[k] = cmplx.Pow(complex(0, 1), complex(float64(k), 0)) / complex(fact, 0)
	}
	p2 := ev.MulRelinRescale(theta, theta)
	p3 := ev.MulRelinRescale(p2, ev.DropLevels(theta, 1))
	p4 := ev.MulRelinRescale(p2, p2)

	// All terms land at the common level of p3/p4 minus one, scale Δ.
	lowLevel := p3.Level() - 1
	sumAt := func(ps []*rlwe.Ciphertext, cs []complex128, target float64) *rlwe.Ciphertext {
		var acc *rlwe.Ciphertext
		for i, pc := range ps {
			if cs[i] == 0 {
				continue
			}
			c := pc
			if c.Level() > lowLevel+1 {
				c = ev.DropLevels(c, c.Level()-(lowLevel+1))
			}
			term := ev.MulConstToScale(c, cs[i], target)
			if acc == nil {
				acc = term
			} else {
				acc = ev.Add(acc, term)
			}
		}
		return acc
	}
	low := sumAt([]*rlwe.Ciphertext{theta, p2, p3}, coef[1:4], delta)
	low = ev.AddConst(low, coef[0])

	// high target scale chosen so p4·high rescales exactly to Δ.
	p4d := p4
	if p4d.Level() > lowLevel {
		p4d = ev.DropLevels(p4d, p4d.Level()-lowLevel)
	}
	qAtMul := float64(p.Q[lowLevel-1])
	targetHigh := delta * qAtMul / p4d.Scale
	high := sumAt([]*rlwe.Ciphertext{theta, p2, p3}, coef[5:8], targetHigh)
	high = ev.AddConst(high, coef[4])

	e := ev.MulRelinRescale(p4d, high)
	e.Scale = delta
	if low.Level() > e.Level() {
		low = ev.DropLevels(low, low.Level()-e.Level())
	}
	e = ev.Add(e, low)

	// Angle doubling: R squarings take exp(iθ) to exp(2πi(m+q0I)/q0) =
	// exp(2πi·m/q0); the integer wrap I vanishes.
	for r := 0; r < bt.Cfg.R; r++ {
		e = ev.MulRelinRescale(e, e)
		if ratio := e.Scale / delta; ratio < 0.9 || ratio > 1.1 {
			panic("ckks: evalMod scale drift — moduli must sit close to Δ")
		}
		e.Scale = delta
	}

	// sin = (E − conj(E))/(2i); multiply by q0/(2πΔ)·Δ to land on m/Δ.
	diff := ev.Sub(e, ev.Conjugate(e))
	out := ev.MulConstToScale(diff, complex(0, -1)*complex(q0/(4*math.Pi*delta), 0), delta)
	return out
}

// Bootstrap refreshes a level-1 ciphertext to level MaxLevel − (8 + Cfg.R),
// homomorphically re-encrypting the message per Figure 1(a). The output scale
// equals the input scale.
func (bt *Bootstrapper) Bootstrap(ct *rlwe.Ciphertext) *rlwe.Ciphertext {
	ev := bt.Ev
	delta := bt.Params.DefaultScale

	raised := bt.modRaise(ct)

	// CoeffToSlot: two real-coefficient vectors from z and conj(z).
	conj := ev.Conjugate(raised)
	t0 := ev.Add(ev.EvalLinearTransform(raised, bt.c2sM0), ev.EvalLinearTransform(conj, bt.c2sM0c))
	t0 = ev.RescaleToScale(t0, delta)
	t1 := ev.Add(ev.EvalLinearTransform(raised, bt.c2sM1), ev.EvalLinearTransform(conj, bt.c2sM1c))
	t1 = ev.RescaleToScale(t1, delta)

	// EvalMod on both coefficient halves.
	r0 := bt.evalMod(t0)
	r1 := bt.evalMod(t1)

	// SlotToCoeff.
	out := ev.Add(ev.EvalLinearTransform(r0, bt.s2cS0), ev.EvalLinearTransform(r1, bt.s2cS1))
	out = ev.RescaleToScale(out, delta)
	out.Scale = ct.Scale
	return out
}
