package ckks

import (
	"fmt"
	"math"
	"sync"

	"heap/internal/ring"
	"heap/internal/rlwe"
	"heap/internal/rns"
)

// Evaluator performs homomorphic CKKS operations. Safe for concurrent use
// after construction.
type Evaluator struct {
	Params *Parameters
	KS     *rlwe.KeySwitcher
	Keys   *EvaluationKeySet

	// NTT form of the monomial X^{N/2} per Q limb: in CKKS slot space this
	// monomial is the constant imaginary unit i (5^j ≡ 1 mod 4 puts every
	// evaluation point on a root with ζ^{N/2} = i), enabling cheap complex
	// scalar multiplication.
	monoI []ring.Poly

	// degree2 pools the degree-2 component of Mul's tensor (a top-level
	// *rns.Poly, of which a call uses a view at its own level), so that Mul
	// allocates only its product.
	degree2 sync.Pool
}

// NewEvaluator constructs an evaluator; ks may be shared (or nil to build).
func NewEvaluator(params *Parameters, keys *EvaluationKeySet, ks *rlwe.KeySwitcher) *Evaluator {
	if ks == nil {
		ks = rlwe.NewKeySwitcher(params.Parameters)
	}
	ev := &Evaluator{Params: params, KS: ks, Keys: keys}
	ev.degree2.New = func() any {
		d2 := params.QBasis.NewPoly()
		return &d2
	}
	ev.monoI = make([]ring.Poly, params.MaxLevel())
	for i, r := range params.QBasis.Rings {
		p := r.NewPoly()
		p[params.N()/2] = 1
		r.NTT(p)
		ev.monoI[i] = p
	}
	// Precompute the automorphism permutations for all promised Galois keys
	// so concurrent evaluation never mutates shared state.
	if keys != nil {
		for g := range keys.galois {
			ks.EnsurePerm(g)
		}
	}
	return ev
}

func commonLevel(a, b *rlwe.Ciphertext) int {
	if a.Level() < b.Level() {
		return a.Level()
	}
	return b.Level()
}

func checkScales(a, b *rlwe.Ciphertext) {
	r := a.Scale / b.Scale
	if r < 0.99 || r > 1.01 {
		panic(fmt.Sprintf("ckks: scale mismatch %g vs %g", a.Scale, b.Scale))
	}
}

// Add returns a + b (Add of §II-A).
func (ev *Evaluator) Add(a, b *rlwe.Ciphertext) *rlwe.Ciphertext {
	checkScales(a, b)
	level := commonLevel(a, b)
	bas := ev.Params.QBasis.AtLevel(level)
	out := rlwe.NewCiphertext(ev.Params.Parameters, level)
	bas.Add(a.C0, b.C0, out.C0)
	bas.Add(a.C1, b.C1, out.C1)
	out.Scale = a.Scale
	return out
}

// Sub returns a − b.
func (ev *Evaluator) Sub(a, b *rlwe.Ciphertext) *rlwe.Ciphertext {
	checkScales(a, b)
	level := commonLevel(a, b)
	bas := ev.Params.QBasis.AtLevel(level)
	out := rlwe.NewCiphertext(ev.Params.Parameters, level)
	bas.Sub(a.C0, b.C0, out.C0)
	bas.Sub(a.C1, b.C1, out.C1)
	out.Scale = a.Scale
	return out
}

// Neg returns −a.
func (ev *Evaluator) Neg(a *rlwe.Ciphertext) *rlwe.Ciphertext {
	bas := ev.Params.QBasis.AtLevel(a.Level())
	out := rlwe.NewCiphertext(ev.Params.Parameters, a.Level())
	bas.Neg(a.C0, out.C0)
	bas.Neg(a.C1, out.C1)
	out.Scale = a.Scale
	return out
}

// AddPlain returns ct + pt where pt is an NTT plaintext at matching scale
// (PtAdd of §II-A), at the common level of the two like Add and MulPlain: a
// plaintext encoded at a lower level has no residues for ct's upper limbs, so
// a result that kept them would name ct there and ct + pt below.
func (ev *Evaluator) AddPlain(ct *rlwe.Ciphertext, pt rns.Poly) *rlwe.Ciphertext {
	level := min(ct.Level(), pt.Level())
	bas := ev.Params.QBasis.AtLevel(level)
	out := &rlwe.Ciphertext{C0: bas.NewPoly(), C1: ct.C1.AtLevel(level).Copy(), IsNTT: ct.IsNTT, Scale: ct.Scale}
	bas.Add(ct.C0, pt, out.C0)
	return out
}

// MulPlain returns ct ⊙ pt with the plaintext's scale multiplied in
// (PtMult of §II-A). Rescale afterwards to shrink Δ² back to Δ.
func (ev *Evaluator) MulPlain(ct *rlwe.Ciphertext, pt rns.Poly, ptScale float64) *rlwe.Ciphertext {
	level := ct.Level()
	if pt.Level() < level {
		level = pt.Level()
	}
	bas := ev.Params.QBasis.AtLevel(level)
	out := rlwe.NewCiphertext(ev.Params.Parameters, level)
	bas.MulCoeffs(ct.C0, pt, out.C0)
	bas.MulCoeffs(ct.C1, pt, out.C1)
	out.Scale = ct.Scale * ptScale
	return out
}

// Mul returns the relinearized product a·b (Mult of §II-A): tensor to degree
// two, then key-switch the s² component with the relinearization key.
func (ev *Evaluator) Mul(a, b *rlwe.Ciphertext) *rlwe.Ciphertext {
	out := rlwe.NewCiphertext(ev.Params.Parameters, commonLevel(a, b))
	d2 := ev.degree2.Get().(*rns.Poly)
	ev.mulInto(out, a, b, *d2)
	ev.degree2.Put(d2)
	return out
}

// mulInto writes the relinearized product a·b into out, at out's level, with
// d2 (at least that level) as the degree-2 component's buffer. The tensor's
// limbs are independent, so they run at the key switcher's width like the
// relinearization's own; the degree-0 and degree-1 parts are formed in out,
// which the relinearization adds into. Every word of out and d2 is written
// before it is read.
func (ev *Evaluator) mulInto(out, a, b *rlwe.Ciphertext, d2 rns.Poly) {
	level := out.Level()
	bas := ev.Params.QBasis.AtLevel(level)
	d2 = d2.AtLevel(level)
	ev.KS.Fan(level, func(i int) {
		r := bas.Rings[i]
		r.MulCoeffs(a.C0.Limbs[i], b.C0.Limbs[i], out.C0.Limbs[i])
		r.MulCoeffs(a.C0.Limbs[i], b.C1.Limbs[i], out.C1.Limbs[i])
		r.MulCoeffsAndAdd(a.C1.Limbs[i], b.C0.Limbs[i], out.C1.Limbs[i])
		r.MulCoeffs(a.C1.Limbs[i], b.C1.Limbs[i], d2.Limbs[i])
	})
	ev.KS.Relinearize(out.C0, out.C1, d2, ev.Keys.relin())
	out.IsNTT = true
	out.Scale = a.Scale * b.Scale
}

// Rescale divides by the last limb modulus and drops it (Rescale of §II-A),
// in whichever representation ct is in.
func (ev *Evaluator) Rescale(ct *rlwe.Ciphertext) *rlwe.Ciphertext {
	level := ct.Level()
	if level < 2 {
		panic("ckks: no limb left to rescale")
	}
	out := ev.KS.DivRoundByLastModulus(ct)
	out.Scale = ct.Scale / float64(ev.Params.Q[level-1])
	return out
}

// MulRelinRescale is the common Mult→Rescale sequence, Rescale(Mul(a, b))
// word for word, with the rescale done inside the relinearization's ModDown
// (rlwe.KeySwitcher.MulRelinRescale): the rescaled ciphertext is all it
// allocates.
func (ev *Evaluator) MulRelinRescale(a, b *rlwe.Ciphertext) *rlwe.Ciphertext {
	out := ev.KS.MulRelinRescale(a, b, ev.Keys.relin())
	out.Scale /= float64(ev.Params.Q[out.Level()])
	return out
}

// DropLevels truncates n limbs without rescaling (level alignment).
func (ev *Evaluator) DropLevels(ct *rlwe.Ciphertext, n int) *rlwe.Ciphertext {
	level := ct.Level() - n
	if level < 1 {
		panic("ckks: cannot drop below level 1")
	}
	return &rlwe.Ciphertext{C0: ct.C0.AtLevel(level), C1: ct.C1.AtLevel(level), IsNTT: true, Scale: ct.Scale}
}

// Rotate rotates the slot vector by k positions (Rotate of §II-A): the
// automorphism X → X^{5^k} followed by a key switch.
func (ev *Evaluator) Rotate(ct *rlwe.Ciphertext, k int) *rlwe.Ciphertext {
	if k == 0 {
		return ct.CopyNew()
	}
	g := ev.Params.QBasis.Rings[0].GaloisElementForRotation(k)
	gk, ok := ev.Keys.galoisKey(g)
	if !ok {
		panic(fmt.Sprintf("ckks: missing rotation key for k=%d (galois %d)", k, g))
	}
	return ev.KS.Automorphism(ct, g, gk)
}

// Conjugate conjugates every slot (Conjugate of §II-A): X → X^{2N−1}.
func (ev *Evaluator) Conjugate(ct *rlwe.Ciphertext) *rlwe.Ciphertext {
	g := ev.Params.QBasis.Rings[0].GaloisElementConjugate()
	gk, ok := ev.Keys.galoisKey(g)
	if !ok {
		panic("ckks: missing conjugation key")
	}
	return ev.KS.Automorphism(ct, g, gk)
}

// MulByConstInt multiplies by a signed integer without consuming scale.
func (ev *Evaluator) MulByConstInt(ct *rlwe.Ciphertext, c int64) *rlwe.Ciphertext {
	level := ct.Level()
	bas := ev.Params.QBasis.AtLevel(level)
	out := rlwe.NewCiphertext(ev.Params.Parameters, level)
	out.Scale = ct.Scale
	for i := 0; i < level; i++ {
		r := bas.Rings[i]
		cc := signedResidue(c, r.Mod.Q)
		r.MulScalar(ct.C0.Limbs[i], cc, out.C0.Limbs[i])
		r.MulScalar(ct.C1.Limbs[i], cc, out.C1.Limbs[i])
	}
	return out
}

// MulByComplexConst multiplies every slot by the complex constant c, encoded
// at auxScale (the ciphertext scale is multiplied by auxScale; rescale to
// shrink it back). The real part is a plain scalar; the imaginary part rides
// on the monomial X^{N/2}, which is the constant i in slot space.
func (ev *Evaluator) MulByComplexConst(ct *rlwe.Ciphertext, c complex128, auxScale float64) *rlwe.Ciphertext {
	level := ct.Level()
	bas := ev.Params.QBasis.AtLevel(level)
	re := int64(math.Round(real(c) * auxScale))
	im := int64(math.Round(imag(c) * auxScale))
	out := rlwe.NewCiphertext(ev.Params.Parameters, level)
	out.Scale = ct.Scale * auxScale
	tmp := bas.NewPoly()
	for i := 0; i < level; i++ {
		r := bas.Rings[i]
		rr := signedResidue(re, r.Mod.Q)
		r.MulScalar(ct.C0.Limbs[i], rr, out.C0.Limbs[i])
		r.MulScalar(ct.C1.Limbs[i], rr, out.C1.Limbs[i])
		if im != 0 {
			ii := signedResidue(im, r.Mod.Q)
			r.MulCoeffs(ct.C0.Limbs[i], ev.monoI[i], tmp.Limbs[i])
			r.MulScalar(tmp.Limbs[i], ii, tmp.Limbs[i])
			r.Add(out.C0.Limbs[i], tmp.Limbs[i], out.C0.Limbs[i])
			r.MulCoeffs(ct.C1.Limbs[i], ev.monoI[i], tmp.Limbs[i])
			r.MulScalar(tmp.Limbs[i], ii, tmp.Limbs[i])
			r.Add(out.C1.Limbs[i], tmp.Limbs[i], out.C1.Limbs[i])
		}
	}
	return out
}

// MulByFloat multiplies every slot by a real constant at auxScale.
func (ev *Evaluator) MulByFloat(ct *rlwe.Ciphertext, f, auxScale float64) *rlwe.Ciphertext {
	return ev.MulByComplexConst(ct, complex(f, 0), auxScale)
}

// AddConst adds the complex constant c to every slot.
func (ev *Evaluator) AddConst(ct *rlwe.Ciphertext, c complex128) *rlwe.Ciphertext {
	level := ct.Level()
	bas := ev.Params.QBasis.AtLevel(level)
	out := ct.CopyNew()
	re := int64(math.Round(real(c) * ct.Scale))
	im := int64(math.Round(imag(c) * ct.Scale))
	for i := 0; i < level; i++ {
		r := bas.Rings[i]
		if re != 0 {
			r.AddScalar(out.C0.Limbs[i], signedResidue(re, r.Mod.Q), out.C0.Limbs[i])
		}
		if im != 0 {
			tmp := r.NewPoly()
			r.MulScalar(ev.monoI[i], signedResidue(im, r.Mod.Q), tmp)
			r.Add(out.C0.Limbs[i], tmp, out.C0.Limbs[i])
		}
	}
	return out
}

func signedResidue(c int64, q uint64) uint64 {
	if c >= 0 {
		return uint64(c) % q
	}
	return q - uint64(-c)%q
}
