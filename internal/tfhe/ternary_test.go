package tfhe

import (
	"fmt"
	"math"
	"math/big"
	"strings"
	"testing"

	"heap/internal/obs"
	"heap/internal/ring"
	"heap/internal/rlwe"
	"heap/internal/rns"
)

// blindRotateSequentialInto is the per-ciphertext rotation loop as it stood
// while a ternary key index was folded in as two CMux steps one after the
// other — the loop moved here verbatim when ternaryStep replaced it. It is
// the reference the one-product form is measured against: the two agree up
// to key-switch noise, not bit for bit (the second CMux sees the first one's
// output), so the tests below compare them at decrypt level and through
// Decryptor.NoiseBits.
func (ev *Evaluator) blindRotateSequentialInto(acc *rlwe.Ciphertext, lwe *rlwe.LWECiphertext, lut *LookupTable, brk *BlindRotateKey, sc *Scratch) {
	n := ev.Params.N()
	twoN := uint64(2 * n)
	if lwe.Q != twoN {
		panic("tfhe: BlindRotate requires an LWE ciphertext at modulus 2N")
	}
	if len(lwe.A) != brk.NumKeys() {
		panic("tfhe: LWE dimension does not match blind-rotate key")
	}
	level := lut.Level
	if acc.Level() != level {
		panic("tfhe: accumulator level does not match lookup table")
	}
	sc.ensure(ev.Params, level)
	b := ev.Params.QBasis.AtLevel(level)

	// ACC ← (f·X^b, 0), trivial RLWE in coefficient representation.
	acc.IsNTT = false
	acc.Scale = 1
	for i := 0; i < level; i++ {
		b.Rings[i].MulByMonomialInto(lut.Poly.Limbs[i], int(lwe.B%twoN), acc.C0.Limbs[i])
	}
	acc.C1.Zero()

	for i, ai := range lwe.A {
		ai %= twoN
		if ai == 0 {
			continue
		}
		ev.cmuxStep(acc, int(ai), brk.Plus[i], level, sc)
		if !brk.Binary {
			ev.cmuxStep(acc, -int(ai), brk.Minus[i], level, sc)
		}
	}
}

// rotateStepwise is the ciphertext-major rotation loop: the accumulator
// set-up followed by one call of step per non-zero mask element — opened up
// so a test can substitute the step (a binary key through ternaryStep) or
// look at the accumulator between iterations (the noise ledger). With ev.step
// (rotateReference) it is bit for bit the shipped rotation, a key-major tile
// of one, which TestBlindRotateNoise checks before it trusts the trace.
func (ev *Evaluator) rotateStepwise(acc *rlwe.Ciphertext, lwe *rlwe.LWECiphertext, lut *LookupTable, sc *Scratch, step func(k, i int)) {
	twoN := uint64(2 * ev.Params.N())
	level := lut.Level
	sc.ensure(ev.Params, level)
	acc.IsNTT = false
	acc.Scale = 1
	for i, r := range ev.Params.QBasis.Rings[:level] {
		r.MulByMonomialInto(lut.Poly.Limbs[i], int(lwe.B%twoN), acc.C0.Limbs[i])
	}
	acc.C1.Zero()
	for i, ai := range lwe.A {
		if ai %= twoN; ai == 0 {
			continue
		}
		step(int(ai), i)
	}
}

// rotateReference is rotateStepwise with the shipped step: the per-ciphertext
// reference every tile of the key-major engine is held to, word for word.
func (ev *Evaluator) rotateReference(acc *rlwe.Ciphertext, lwe *rlwe.LWECiphertext, lut *LookupTable, brk *BlindRotateKey, sc *Scratch) {
	ev.rotateStepwise(acc, lwe, lut, sc, func(k, i int) { ev.step(acc, k, brk, i, lut.Level, sc) })
}

// lweWithMask builds the LWE ciphertext with the given mask and exact phase
// u at modulus q under secret s: b = u − ⟨a, s⟩.
func lweWithMask(u int64, q uint64, s []int64, a []uint64) *rlwe.LWECiphertext {
	b := u
	for i, ai := range a {
		b -= s[i] * int64(ai%q)
	}
	m := int64(q)
	return &rlwe.LWECiphertext{A: append([]uint64(nil), a...), B: uint64((b%m + m) % m), Q: q}
}

func hamming(s []int64) (h int) {
	for _, v := range s {
		if v != 0 {
			h++
		}
	}
	return h
}

// rotShape is one parameter point of the noise and budget tests: the ring,
// the gadget shape, the LWE dimension and the lookup-table level (0 = top).
type rotShape struct {
	name                       string
	logN, qLimbs, pLimbs, bits int
	dnum, n, level             int
	secret                     rlwe.SecretDist
}

// rotFixture is the key material of one shape, with both secrets in hand so
// the tests can say what the accumulator should decrypt to.
type rotFixture struct {
	p     *rlwe.Parameters
	ev    *Evaluator
	dec   *rlwe.Decryptor
	rsk   *rlwe.SecretKey
	lweSK *rlwe.LWESecretKey
	brk   *BlindRotateKey
	lut   *LookupTable
}

// lutShift places the table's values: g(u) = u·2^lutShift + 1 (odd, so no
// coefficient of f is zero and every limb carries weight). Far above the
// rotation's 10–12 bits of noise, so the decrypt-level checks can round.
const lutShift = 24

func newRotFixture(t testing.TB, sh rotShape, seed uint64) *rotFixture {
	t.Helper()
	q := ring.GenerateNTTPrimes(sh.bits, sh.logN, sh.qLimbs)
	pp := ring.GenerateNTTPrimesUp(sh.bits+1, sh.logN, sh.pLimbs)
	p := rlwe.MustParameters(sh.logN, q, pp, ring.DefaultSigma, sh.dnum)
	kg := rlwe.NewKeyGenerator(p, seed)
	rsk := kg.GenSecretKey(rlwe.SecretTernary)
	lweSK := kg.GenLWESecretKey(sh.n, sh.secret)
	brk := GenBlindRotateKey(kg, lweSK, rsk)
	if brk.Binary != (sh.secret == rlwe.SecretBinary) {
		t.Fatalf("%s: key came out binary=%v", sh.name, brk.Binary)
	}
	level := sh.level
	if level == 0 {
		level = p.MaxLevel()
	}
	lut := NewLUTFromBig(p, level, func(u int) *big.Int { return big.NewInt(int64(u)<<lutShift + 1) })
	return &rotFixture{p: p, ev: NewEvaluator(p, nil), dec: rlwe.NewDecryptor(p, rsk), rsk: rsk, lweSK: lweSK, brk: brk, lut: lut}
}

// wantRotated returns f·X^u, what a noiseless blind rotation holds once the
// mask elements folded in so far add up to phase u.
func (fx *rotFixture) wantRotated(u int) rns.Poly {
	b := fx.p.QBasis.AtLevel(fx.lut.Level)
	out := b.NewPoly()
	for i, r := range b.Rings {
		r.MulByMonomialInto(fx.lut.Poly.Limbs[i], u, out.Limbs[i])
	}
	return out
}

// decoded returns the table argument the accumulator's constant coefficient
// rounds to: (phase₀ − 1) / 2^lutShift, to the nearest integer.
func (fx *rotFixture) decoded(acc *rlwe.Ciphertext) int64 {
	c := new(big.Int).Sub(fx.dec.PhaseCentered(acc)[0], big.NewInt(1))
	c.Add(c, big.NewInt(1<<(lutShift-1)))
	return c.Rsh(c, lutShift).Int64() // Rsh on big.Int floors, also below zero
}

// stepKind is how one non-zero mask element is folded in, as far as noise is
// concerned: how many keys each decomposition is MACed against, whether the
// product is multiplied by X^{±k} − 1 after the MAC (2: that doubles the
// variance) or the factor was in the decomposed operand (1), and how many
// pairs of ModDowns the step runs.
type stepKind struct{ keys, monomial, modDowns float64 }

var (
	fusedTernary      = stepKind{keys: 2, monomial: 2, modDowns: 1}
	sequentialTernary = stepKind{keys: 2, monomial: 1, modDowns: 2}
	binaryCMux        = stepKind{keys: 1, monomial: 1, modDowns: 1}
)

// noiseBoundBits is the analytic bound the measured noise is held to: log₂ of
// six standard deviations of one phase-error coefficient after steps
// iterations, from the two error sources of an iteration.
//
// Key-switch term. Raised digit j of a uniform operand is Q_j·(a sum of α_j
// uniforms on [0,1)) — the residues are canonical, not centred, and the fast
// basis extension overshoots by up to α_j−1 multiples of Q_j — so its second
// moment is Q_j²·(α_j²/4 + α_j/12), Q_j the product of the window's α_j limbs
// (the last window of the D may be short). Each coefficient of digit ⊙ row
// sums N such digits times a fresh Gaussian row error of deviation σ; there
// are 2 components × D digits × keys rows, the variance doubles if the MAC is
// multiplied by X^{±k} − 1 afterwards, and the ModDown divides by P:
//
//	V_ks = 2·keys·monomial·N·σ²·Σ_j (α_j²/4 + α_j/12)·(Q_j/P)²
//
// ModDown rounding. Each ModDown returns ⌊x/P⌋ − u with u < |P| the overshoot
// of the P→Q extension: an error of minus a sum of |P| uniforms per
// coefficient, mean |P|/2 and variance |P|/12, on both components, so the
// phase sees ρ₀ + ρ₁·s: 1 + ‖s‖² terms per coefficient (‖s‖² the RLWE
// secret's Hamming weight). The mean is the same vector every iteration: it
// adds linearly while the accumulator is not rotated in between — a run of
// mask elements whose secret coefficient is 0, of length L geometric in the
// LWE secret's density p = ‖s_lwe‖₁/n, E[L²]/E[L] = (2−p)/p — and with a
// fresh negacyclic sign pattern once it is:
//
//	V_md = modDowns·(1 + ‖s‖²)·(|P|/12 + |P|²/4·(2−p)/p)
//
// Iterations are independent (fresh rows, re-randomised sign patterns), so the
// variance after steps of them is steps·(V_ks + V_md); six deviations bounds
// the largest of N coefficients over any number of rotations a test runs. The
// shapes below measure 10–11.5 bits against bounds of 11.5–12.5.
func (fx *rotFixture) noiseBoundBits(kind stepKind, steps int) float64 {
	p, level := fx.p, fx.lut.Level
	bigP := new(big.Float).SetInt(p.BigP())
	var digits float64
	for start, alpha := 0, p.Alpha(); start < level; start += alpha {
		end := min(start+alpha, level)
		qj := big.NewInt(1)
		for _, q := range p.Q[start:end] {
			qj.Mul(qj, new(big.Int).SetUint64(q))
		}
		ratio, _ := new(big.Float).Quo(new(big.Float).SetInt(qj), bigP).Float64()
		a := float64(end - start)
		digits += (a*a/4 + a/12) * ratio * ratio
	}
	vKS := 2 * kind.keys * kind.monomial * float64(p.N()) * p.Sigma * p.Sigma * digits
	nP := float64(len(p.P))
	density := float64(fx.lweSK.HammingWeight()) / float64(len(fx.lweSK.Signed))
	vMD := kind.modDowns * float64(1+hamming(fx.rsk.Signed)) * (nP/12 + nP*nP/4*(2-density)/density)
	return math.Log2(6 * math.Sqrt(float64(steps)*(vKS+vMD)))
}

// noiseShapes are heapd's ring, the paper's gadget shape (ternary and
// binary) and a three-digit shape run one level down, so that its last digit
// window is a single limb.
var noiseShapes = []rotShape{
	{name: "N128-Q4P2-n128-ternary", logN: 7, qLimbs: 4, pLimbs: 2, bits: 30, dnum: 2, n: 128, secret: rlwe.SecretTernary},
	{name: "N1024-Q7P4-n64-ternary", logN: 10, qLimbs: 7, pLimbs: 4, bits: 36, dnum: 2, n: 64, secret: rlwe.SecretTernary},
	{name: "N1024-Q7P4-n64-binary", logN: 10, qLimbs: 7, pLimbs: 4, bits: 36, dnum: 2, n: 64, secret: rlwe.SecretBinary},
	{name: "N512-Q6P2-d3-n96-level5-ternary", logN: 9, qLimbs: 6, pLimbs: 2, bits: 30, dnum: 3, n: 96, level: 5, secret: rlwe.SecretTernary},
}

// TestBlindRotateNoise is the referee of the one-product ternary iteration,
// which is equal to the two-step form only up to noise. Per shape, over eight
// phases including the edges of the table's domain, on the same ciphertexts
// and keys: (a) the shipped rotation's noise — the largest centred coefficient
// of phase(ACC) − f·X^u — is within one bit of the sequential reference's,
// worst case and on average; (b) both are under the analytic bound of
// noiseBoundBits for their step kind; (c) the noise after every iteration of
// one rotation is under the bound for that many steps, and logged (-v): the
// blind-rotate row of the stage-by-stage noise ledger. For a binary key the
// reference is the shipped loop itself, so only (b) and (c) say anything.
func TestBlindRotateNoise(t *testing.T) {
	for si, sh := range noiseShapes {
		t.Run(sh.name, func(t *testing.T) {
			fx := newRotFixture(t, sh, 500+uint64(si))
			n, twoN := fx.p.N(), uint64(2*fx.p.N())
			s := ring.NewSampler(600 + uint64(si))
			sc := fx.ev.NewScratch()
			ref := rlwe.NewCiphertext(fx.p, fx.lut.Level)
			kind, refKind := fusedTernary, sequentialTernary
			if fx.brk.Binary {
				kind, refKind = binaryCMux, binaryCMux
			}
			bound, refBound := fx.noiseBoundBits(kind, sh.n), fx.noiseBoundBits(refKind, sh.n)

			var worst, refWorst, sum, refSum float64
			phases := []int64{0, 1, -1, int64(n/2) - 1, -int64(n / 2), 7, -13, int64(n / 4)}
			for _, u := range phases {
				lwe := encryptLWEPhase(u, twoN, fx.lweSK.Signed, s)
				want := fx.wantRotated(int(u))
				shipped := fx.ev.BlindRotate(lwe, fx.lut, fx.brk)
				got, refGot := fx.dec.NoiseBits(shipped, want), 0.0
				if fx.brk.Binary { // the reference is the shipped loop, word for word
					refGot = got
				} else {
					fx.ev.blindRotateSequentialInto(ref, lwe, fx.lut, fx.brk, sc)
					refGot = fx.dec.NoiseBits(ref, want)
					if d := fx.decoded(ref); d != u {
						t.Errorf("u=%d: sequential reference decodes to %d", u, d)
					}
				}
				t.Logf("u=%d: %.2f bits, sequential reference %.2f", u, got, refGot)
				if d := fx.decoded(shipped); d != u {
					t.Errorf("u=%d: decodes to %d", u, d)
				}
				worst, refWorst = math.Max(worst, got), math.Max(refWorst, refGot)
				sum, refSum = sum+got, refSum+refGot
			}
			mean, refMean := sum/float64(len(phases)), refSum/float64(len(phases))
			t.Logf("worst %.2f (bound %.2f), mean %.2f | sequential reference worst %.2f (bound %.2f), mean %.2f",
				worst, bound, mean, refWorst, refBound, refMean)
			if worst > refWorst+1 || mean > refMean+1 {
				t.Errorf("noise %.2f bits worst / %.2f mean is more than a bit over the sequential reference's %.2f / %.2f", worst, mean, refWorst, refMean)
			}
			if worst > bound {
				t.Errorf("noise %.2f bits exceeds the analytic bound %.2f", worst, bound)
			}
			if refWorst > refBound {
				t.Errorf("sequential reference noise %.2f bits exceeds its analytic bound %.2f", refWorst, refBound)
			}
			if bound > worst+3 {
				t.Errorf("analytic bound %.2f is more than 3 bits over the measured %.2f: it no longer says anything", bound, worst)
			}

			// The ledger row: one rotation opened up, noise after each iteration.
			lwe := encryptLWEPhase(5, twoN, fx.lweSK.Signed, s)
			shipped := fx.ev.BlindRotate(lwe, fx.lut, fx.brk)
			traced := rlwe.NewCiphertext(fx.p, fx.lut.Level)
			var row strings.Builder
			phase, steps := int64(lwe.B), 0
			fx.ev.rotateStepwise(traced, lwe, fx.lut, sc, func(k, i int) {
				fx.ev.step(traced, k, fx.brk, i, fx.lut.Level, sc)
				steps++
				phase += fx.lweSK.Signed[i] * int64(k)
				got := fx.dec.NoiseBits(traced, fx.wantRotated(int(phase%int64(twoN))))
				if b := fx.noiseBoundBits(kind, steps); got > b {
					t.Errorf("after iteration %d (%d steps): %.2f bits exceeds the bound %.2f", i, steps, got, b)
				}
				fmt.Fprintf(&row, " %d:%.1f", i, got)
			})
			if !fx.p.QBasis.Equal(shipped.C0, traced.C0) || !fx.p.QBasis.Equal(shipped.C1, traced.C1) {
				t.Fatal("the stepwise loop is not BlindRotate: the per-iteration trace describes something else")
			}
			t.Logf("noise bits after each iteration (key index:bits):%s", row.String())
		})
	}
}

// equivShape is the default tfhe test ring, with the special modulus one bit
// wider than the digits as every shipped configuration has it.
var equivShape = rotShape{name: "N64-Q2P2-n12", logN: 6, qLimbs: 2, pLimbs: 2, bits: 40, dnum: 2, n: 12, secret: rlwe.SecretTernary}

// TestTernaryStepMatchesSequentialReference locks the one-product iteration
// to the two-step reference at decrypt level: the same table value after
// rounding, and full phases no further apart than the two forms' noise bounds
// allow, over random masks, the edge exponents of the monomial vectors
// (a = N is the constant −2, a ≥ N the sign wrap), the all-zero mask (no step
// runs at all) and masks with a single non-zero entry, on a plus and on a
// minus key.
func TestTernaryStepMatchesSequentialReference(t *testing.T) {
	fx := newRotFixture(t, equivShape, 32)
	n, twoN := fx.p.N(), uint64(2*fx.p.N())
	nk := equivShape.n
	s := ring.NewSampler(33)
	plusAt, minusAt := -1, -1
	for i, v := range fx.lweSK.Signed {
		if v == 1 && plusAt < 0 {
			plusAt = i
		}
		if v == -1 && minusAt < 0 {
			minusAt = i
		}
	}
	if plusAt < 0 || minusAt < 0 {
		t.Fatal("fixture secret lacks a +1 or a −1 coefficient")
	}

	var masks [][]uint64
	for r := 0; r < 6; r++ {
		a := make([]uint64, nk)
		for i := range a {
			a[i] = s.UniformMod(twoN)
		}
		masks = append(masks, a)
	}
	edges := []uint64{1, uint64(n - 1), uint64(n), uint64(n + 1), twoN - 1}
	for _, e := range edges {
		all := make([]uint64, nk) // every key index at the edge exponent
		for i := range all {
			all[i] = e
		}
		masks = append(masks, all)
		for _, at := range []int{plusAt, minusAt} { // a single non-zero entry
			one := make([]uint64, nk)
			one[at] = e
			masks = append(masks, one)
		}
	}
	masks = append(masks, make([]uint64, nk)) // all zero

	// The difference of two phases carries both forms' noise.
	bound := math.Log2(math.Hypot(
		math.Exp2(fx.noiseBoundBits(fusedTernary, nk)), math.Exp2(fx.noiseBoundBits(sequentialTernary, nk))))
	sc := fx.ev.NewScratch()
	ref := rlwe.NewCiphertext(fx.p, fx.lut.Level)
	for mi, a := range masks {
		for _, u := range []int64{0, 3, -4, int64(n/2) - 1, -int64(n / 2)} {
			lwe := lweWithMask(u, twoN, fx.lweSK.Signed, a)
			fused := fx.ev.BlindRotate(lwe, fx.lut, fx.brk)
			fx.ev.blindRotateSequentialInto(ref, lwe, fx.lut, fx.brk, sc)
			if got, want := fx.decoded(fused), fx.decoded(ref); got != want || got != u {
				t.Fatalf("mask %d %v u=%d: one-product form decodes to %d, reference to %d", mi, a, u, got, want)
			}
			if d := fx.dec.NoiseBits(fused, fx.dec.Phase(ref)); d > bound {
				t.Fatalf("mask %d %v u=%d: phases differ by %.2f bits, bound %.2f", mi, a, u, d, bound)
			}
			if d := fx.dec.NoiseBits(fused, fx.wantRotated(int(u))); d > fx.noiseBoundBits(fusedTernary, nk) {
				t.Fatalf("mask %d %v u=%d: %.2f bits of noise against f·X^u", mi, a, u, d)
			}
		}
	}
}

// encZeroRows returns n fresh RGSW(0) ciphertexts under the fixture's RLWE
// secret: the Minus rows a binary key would carry if it carried any.
func (fx *rotFixture) encZeroRows(n int, seed uint64) []*rlwe.RGSWCiphertext {
	kg := rlwe.NewKeyGenerator(fx.p, seed)
	rows := make([]*rlwe.RGSWCiphertext, n)
	for i := range rows {
		rows[i] = kg.GenRGSWConstant(0, fx.rsk)
	}
	return rows
}

// TestBinaryKeyThroughTernaryStep is the cross-check that owes nothing to the
// sequential reference: a binary secret's s_i⁻ are all 0, so pushing its
// Plus rows through ternaryStep beside explicit RGSW(0) Minus rows must
// rotate exactly as the binary CMux does — same table value, phases within
// the two steps' noise — which it only does if the monomial signs, the −1
// terms and the Plus/Minus wiring are all right. The binary key itself
// carries no Minus rows, and the two-key step refuses to run without one.
func TestBinaryKeyThroughTernaryStep(t *testing.T) {
	sh := equivShape
	sh.secret = rlwe.SecretBinary
	fx := newRotFixture(t, sh, 34)
	n, twoN := fx.p.N(), uint64(2*fx.p.N())
	s := ring.NewSampler(35)
	sc := fx.ev.NewScratch()
	level := fx.lut.Level
	viaTernary := rlwe.NewCiphertext(fx.p, level)
	minus := fx.encZeroRows(sh.n, 134)
	bound := math.Log2(math.Hypot(
		math.Exp2(fx.noiseBoundBits(fusedTernary, sh.n)), math.Exp2(fx.noiseBoundBits(binaryCMux, sh.n))))
	if fx.brk.Minus != nil {
		t.Fatalf("binary key carries %d Minus rows", len(fx.brk.Minus))
	}
	for _, u := range []int64{0, 1, -1, 9, int64(n/2) - 1, -int64(n / 2)} {
		lwe := encryptLWEPhase(u, twoN, fx.lweSK.Signed, s)
		binary := fx.ev.BlindRotate(lwe, fx.lut, fx.brk)
		fx.ev.rotateStepwise(viaTernary, lwe, fx.lut, sc, func(k, i int) {
			fx.ev.ternaryStep(viaTernary, k, fx.brk.Plus[i], minus[i], sc)
		})
		if got, want := fx.decoded(viaTernary), fx.decoded(binary); got != want || got != u {
			t.Fatalf("u=%d: binary key through ternaryStep decodes to %d, binary step to %d", u, got, want)
		}
		if d := fx.dec.NoiseBits(viaTernary, fx.dec.Phase(binary)); d > bound {
			t.Fatalf("u=%d: phases differ by %.2f bits, bound %.2f", u, d, bound)
		}
	}

	// A missing Minus key is refused, not read as RGSW(0).
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "both keys") {
			t.Fatalf("ternaryStep without a Minus key: recovered %v, want a refusal", r)
		}
	}()
	fx.ev.ternaryStep(viaTernary, 1, fx.brk.Plus[0], nil, sc)
}

// TestBlindRotateTransformBudget pins the limb-transform ledger of one whole
// rotation, for both key types, at the paper's gadget shape (Q7+P4: 66 per
// iteration) and heapd's (Q4+P2: 36): every non-zero mask element costs one
// external product — a ternary key's two keys share it — and the first
// iteration, whose accumulator still has the all-zero C1 it started with,
// skips that component's D·(level+|P|) digit transforms (22 and 12). A zero
// mask element costs nothing and does not clear the skip.
func TestBlindRotateTransformBudget(t *testing.T) {
	for _, c := range []struct {
		qLimbs, pLimbs, perStep, zeroC1 uint64
	}{{7, 4, 66, 22}, {4, 2, 36, 12}} {
		for _, secret := range []rlwe.SecretDist{rlwe.SecretBinary, rlwe.SecretTernary} {
			sh := rotShape{name: "budget", logN: 5, qLimbs: int(c.qLimbs), pLimbs: int(c.pLimbs), bits: 40, dnum: 2, n: 12, secret: secret}
			fx := newRotFixture(t, sh, 36)
			twoN := uint64(2 * fx.p.N())
			a := []uint64{0, 0, 5, 0, twoN, 63, 1, 0, 17, 3*twoN + 9, 2, 0} // 6 non-zero mod 2N, zeros first
			const nonZero = 6
			lwe := lweWithMask(3, twoN, fx.lweSK.Signed, a)
			met := obs.NewMetrics()
			fx.ev.KS.SetRecorder(met)
			acc := fx.ev.BlindRotate(lwe, fx.lut, fx.brk)
			if got, want := met.Counter(obs.CounterNTT), nonZero*c.perStep-c.zeroC1; got != want {
				t.Errorf("Q%d+P%d binary=%v: rotation recorded %d limb transforms, want %d·%d − %d = %d",
					c.qLimbs, c.pLimbs, fx.brk.Binary, got, nonZero, c.perStep, c.zeroC1, want)
			}
			if got := met.Counter(obs.CounterExternalProduct); got != nonZero {
				t.Errorf("Q%d+P%d binary=%v: %d external products, want %d", c.qLimbs, c.pLimbs, fx.brk.Binary, got, nonZero)
			}
			if got := fx.decoded(acc); got != 3 {
				t.Errorf("Q%d+P%d binary=%v: decodes to %d, want 3", c.qLimbs, c.pLimbs, fx.brk.Binary, got)
			}
		}
	}
}
