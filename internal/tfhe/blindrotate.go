package tfhe

import (
	"sync"

	"heap/internal/rlwe"
)

// Evaluator performs blind rotations and CMux operations. It wraps the
// shared rlwe key switcher and is safe for concurrent use — one evaluator
// can serve every worker of the parallel bootstrapper.
type Evaluator struct {
	Params *rlwe.Parameters
	KS     *rlwe.KeySwitcher

	scratchPool sync.Pool
}

// NewEvaluator builds an evaluator (reusing an existing key switcher if
// provided, since its precomputed conversion tables are large).
func NewEvaluator(params *rlwe.Parameters, ks *rlwe.KeySwitcher) *Evaluator {
	if ks == nil {
		ks = rlwe.NewKeySwitcher(params)
	}
	ev := &Evaluator{Params: params, KS: ks}
	ev.scratchPool.New = func() any { return ev.NewScratch() }
	return ev
}

// Scratch is the per-worker arena of the blind-rotation datapath: the
// ciphertext one iteration's product lands in (for a binary key it first holds
// the rotated difference the product consumes), the underlying key-switch
// scratch, and the key-major transpose of a tile's masks. One arena per worker
// makes the whole rotate→decompose→NTT→MAC schedule (§IV-E) allocation-free in
// steady state, the software mirror of the paper's on-chip accumulator
// residency. A Scratch must not be shared between concurrent rotations.
type Scratch struct {
	rot *rlwe.Ciphertext
	KS  *rlwe.Scratch
	// aT is the key-major transpose of the tile's masks: aT[i*T+j] is
	// a_{j,i} mod 2N for tile slot j — laid out so the inner loop over the
	// tile reads contiguously. Doing the reduction once at transpose time
	// hoists the per-aᵢ monomial bookkeeping out of the key loop.
	aT []uint64
}

// NewScratch allocates a blind-rotation scratch arena. Buffers are sized
// lazily by the first rotation, so one arena serves any level and tile size.
func (ev *Evaluator) NewScratch() *Scratch {
	return &Scratch{KS: ev.KS.NewScratch()}
}

func (sc *Scratch) ensure(params *rlwe.Parameters, level int) {
	if sc.rot == nil || sc.rot.Level() != level {
		sc.rot = rlwe.NewCiphertext(params, level)
	}
}

func (ev *Evaluator) getScratch() *Scratch   { return ev.scratchPool.Get().(*Scratch) }
func (ev *Evaluator) putScratch(sc *Scratch) { ev.scratchPool.Put(sc) }

// BlindRotate implements Algorithm 1 of the paper for one LWE ciphertext, as
// a key-major tile of one (BlindRotateTileInto): starting from the trivial
// accumulator ACC = (f·X^b, 0), it folds in each LWE mask element via
//
//	ACC ← ACC ∗ (RGSW(1) + (X^{a_i}−1)·RGSW(s_i⁺) + (X^{−a_i}−1)·RGSW(s_i⁻))
//
// realized as written, one product per iteration: a ternary key decomposes
// ACC once and MACs the digits against both RGSW(s_i⁺) and RGSW(s_i⁻), with
// the two monomial factors applied in the evaluation domain (ternaryStep); a
// binary key has no s_i⁻ term (and no Minus rows) and takes the
// rotate-and-difference CMux (cmuxStep). The input LWE ciphertext must be at
// modulus 2N; the output is an RLWE ciphertext at lut.Level whose constant
// coefficient encrypts g(phase).
//
// The accumulator is kept in coefficient representation between iterations:
// the gadget decompositions of the BlindRotate datapath (§IV-E) operate on
// coefficients, with NTTs only inside the external product — exactly the
// rotate→decompose→NTT→MAC schedule the paper describes.
func (ev *Evaluator) BlindRotate(lwe *rlwe.LWECiphertext, lut *LookupTable, brk *BlindRotateKey) *rlwe.Ciphertext {
	acc := rlwe.NewCiphertext(ev.Params, lut.Level)
	sc := ev.getScratch()
	ev.BlindRotateTileInto([]*rlwe.Ciphertext{acc}, []*rlwe.LWECiphertext{lwe}, lut, brk, sc)
	ev.putScratch(sc)
	return acc
}

// step folds mask element a_i = k ≢ 0 into the accumulator: Algorithm 1's one
// product for key index i. Which of the two forms runs is read off the key —
// brk.Binary is set by GenBlindRotateKey and carried in the key header.
func (ev *Evaluator) step(acc *rlwe.Ciphertext, k int, brk *BlindRotateKey, i, level int, sc *Scratch) {
	if brk.Binary {
		ev.cmuxStep(acc, k, brk.Plus[i], level, sc)
	} else {
		ev.ternaryStep(acc, k, brk.Plus[i], brk.Minus[i], sc)
	}
}

// ternaryStep computes
//
//	ACC += ((X^k − 1)·ACC) ⊡ plus + ((X^{−k} − 1)·ACC) ⊡ minus
//
// in place as one two-key external product of the accumulator as it stands:
// one decomposition, one pair of ModDowns that finish onto ACC — 66 limb
// transforms at the paper parameters, what a single cmuxStep costs, where
// folding the two keys in one after the other costs 132. The two forms agree
// up to key-switch noise, not bit for bit; blindRotateSequentialInto in the
// tests is the two-step reference this one is measured against
// (TestBlindRotateNoise).
func (ev *Evaluator) ternaryStep(acc *rlwe.Ciphertext, k int, plus, minus *rlwe.RGSWCiphertext, sc *Scratch) {
	ev.KS.ExternalProductTwoKeyCoeffAddTo(acc, k, plus, minus, sc.KS)
}

// cmuxStep computes ACC += (X^k·ACC − ACC) ⊡ rgsw in place, with the rotated
// difference living in the scratch arena: one (X^k − 1) pass per limb and
// component writes it, and the external product's ModDowns add their result
// onto ACC as they finish. The accumulator stays in coefficient
// representation, so the product is taken in its coefficient-output form: 66
// limb transforms at the paper parameters (44 digit NTTs, 8 P-part and 14
// Q-part inverse transforms in the two ModDowns), where an NTT-domain product
// followed by INTTs is 80.
func (ev *Evaluator) cmuxStep(acc *rlwe.Ciphertext, k int, rgsw *rlwe.RGSWCiphertext, level int, sc *Scratch) {
	rot := sc.rot
	rot.IsNTT = false
	for i, r := range ev.Params.QBasis.Rings[:level] {
		r.MulByMonomialMinusOneInto(acc.C0.Limbs[i], k, rot.C0.Limbs[i])
		r.MulByMonomialMinusOneInto(acc.C1.Limbs[i], k, rot.C1.Limbs[i])
	}
	ev.KS.ExternalProductCoeffAddTo(acc, rot, rgsw, sc.KS)
}

// CMuxInto homomorphically selects ct1 (bit=1) or ct0 (bit=0) into the
// caller-owned out: out = ct0 + (ct1 − ct0) ⊡ RGSW(bit). Inputs must share
// representation and level; out must be at the same level and must not alias
// either input. The difference and the external product live in the scratch
// arena, so the selection is allocation-free in steady state. The output is
// in NTT representation.
func (ev *Evaluator) CMuxInto(out *rlwe.Ciphertext, bit *rlwe.RGSWCiphertext, ct0, ct1 *rlwe.Ciphertext, sc *Scratch) {
	level := ct0.Level()
	if ct1.Level() != level || out.Level() != level {
		panic("tfhe: CMux operand levels differ")
	}
	if ct0.IsNTT != ct1.IsNTT {
		panic("tfhe: CMux inputs must share representation")
	}
	sc.ensure(ev.Params, level)
	b := ev.Params.QBasis.AtLevel(level)
	diff := sc.rot
	diff.IsNTT = ct1.IsNTT
	diff.Scale = ct1.Scale
	b.Sub(ct1.C0, ct0.C0, diff.C0)
	b.Sub(ct1.C1, ct0.C1, diff.C1)
	ev.KS.ExternalProductInto(diff, diff, bit, sc.KS) // NTT-form output
	for i := 0; i < level; i++ {
		copy(out.C0.Limbs[i], ct0.C0.Limbs[i])
		copy(out.C1.Limbs[i], ct0.C1.Limbs[i])
	}
	out.IsNTT = ct0.IsNTT
	out.Scale = ct0.Scale
	if !out.IsNTT {
		b.NTT(out.C0)
		b.NTT(out.C1)
		out.IsNTT = true
	}
	b.Add(out.C0, diff.C0, out.C0)
	b.Add(out.C1, diff.C1, out.C1)
}

// InternalProductRows realizes the §VII-A InternalProduct between GGSW
// ciphertexts as "a list of independent ExternalProducts": every RLWE row of
// the gadget ciphertext b (restricted to the ciphertext modulus Q) is
// externally multiplied by a, yielding RLWE encryptions of m_a·phase(row_b).
// Reassembling the rows into a full GGSW additionally requires fresh
// special-modulus components, which the paper's offline key generation
// provides; the returned rows are the on-line computation.
func (ev *Evaluator) InternalProductRows(a *rlwe.RGSWCiphertext, b *rlwe.GadgetCiphertext) []*rlwe.Ciphertext {
	L := ev.Params.MaxLevel()
	out := make([]*rlwe.Ciphertext, b.Rows())
	sc := ev.getScratch()
	for j := 0; j < b.Rows(); j++ {
		row := &rlwe.Ciphertext{C0: b.B[j].AtLevel(L), C1: b.A[j].AtLevel(L), IsNTT: true, Scale: 1}
		out[j] = rlwe.NewCiphertext(ev.Params, L)
		ev.KS.ExternalProductInto(out[j], row, a, sc.KS)
	}
	ev.putScratch(sc)
	return out
}
