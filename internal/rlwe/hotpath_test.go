package rlwe

import (
	"sync"
	"testing"

	"heap/internal/obs"
	"heap/internal/ring"
)

// hotpathFixture builds a key switcher plus the ciphertext/RGSW operands of
// an external product at the full level.
func hotpathFixture(t *testing.T) (*Parameters, *KeySwitcher, *Ciphertext, *RGSWCiphertext) {
	t.Helper()
	p := testParams(t, 5)
	kg := NewKeyGenerator(p, 7)
	sk := kg.GenSecretKey(SecretTernary)
	enc := NewEncryptor(p, sk, 8)
	rgsw := kg.GenRGSWConstant(1, sk)

	msg := make([]int64, p.N())
	for i := range msg {
		msg[i] = int64(i%17) - 8
	}
	level := p.MaxLevel()
	ct := enc.EncryptPolyAtLevel(encodeSigned(p, msg, level), level, 1)
	return p, NewKeySwitcher(p), ct, rgsw
}

// TestExternalProductIntoMatchesAllocating locks in bit-identical outputs
// between the allocating convenience API and the scratch-arena hot path,
// including on scratch reuse (a stale buffer that leaked state across calls
// would show up on the second Into call).
func TestExternalProductIntoMatchesAllocating(t *testing.T) {
	p, ks, ct, rgsw := hotpathFixture(t)
	want := ks.ExternalProduct(ct, rgsw)

	sc := ks.NewScratch()
	got := NewCiphertext(p, ct.Level())
	for rep := 0; rep < 2; rep++ {
		ks.ExternalProductInto(got, ct, rgsw, sc)
		if !p.QBasis.Equal(want.C0, got.C0) || !p.QBasis.Equal(want.C1, got.C1) {
			t.Fatalf("rep %d: ExternalProductInto differs from ExternalProduct", rep)
		}
		if got.IsNTT != want.IsNTT || got.Scale != want.Scale {
			t.Fatalf("rep %d: metadata mismatch", rep)
		}
	}
}

// TestSwitchPolyIntoMatchesSwitchPoly does the same for the CKKS-side kernel.
func TestSwitchPolyIntoMatchesSwitchPoly(t *testing.T) {
	p := testParams(t, 5)
	kg := NewKeyGenerator(p, 9)
	sk := kg.GenSecretKey(SecretTernary)
	rlk := kg.GenRelinearizationKey(sk)
	ks := NewKeySwitcher(p)

	msg := make([]int64, p.N())
	for i := range msg {
		msg[i] = int64(i%23) - 11
	}
	c := encodeSigned(p, msg, p.MaxLevel())
	wd0, wd1 := ks.SwitchPoly(c, rlk)

	b := p.QBasis.AtLevel(c.Level())
	d0, d1 := b.NewPoly(), b.NewPoly()
	sc := ks.NewScratch()
	for rep := 0; rep < 2; rep++ {
		ks.SwitchPolyInto(c, rlk, d0, d1, sc)
		if !p.QBasis.Equal(wd0, d0) || !p.QBasis.Equal(wd1, d1) {
			t.Fatalf("rep %d: SwitchPolyInto differs from SwitchPoly", rep)
		}
	}
}

// TestExternalProductIntoZeroAllocs is the allocation-regression lock for
// the BlindRotate hot kernel: once the scratch arena is warm, an external
// product must not touch the heap at all.
func TestExternalProductIntoZeroAllocs(t *testing.T) {
	p, ks, ct, rgsw := hotpathFixture(t)
	sc := ks.NewScratch()
	out := NewCiphertext(p, ct.Level())
	ks.ExternalProductInto(out, ct, rgsw, sc) // warm the arena

	if avg := testing.AllocsPerRun(10, func() {
		ks.ExternalProductInto(out, ct, rgsw, sc)
	}); avg != 0 {
		t.Fatalf("ExternalProductInto allocates %.1f objects/op, want 0", avg)
	}
}

// TestConcurrentAutomorphismsColdCache drives Automorphism from many
// goroutines against a cold permutation cache — the exact lazy-fill pattern
// pack.go and the CKKS evaluator trigger. Before EnsurePerm was guarded,
// this was a concurrent map write crash under -race (and in production).
func TestConcurrentAutomorphismsColdCache(t *testing.T) {
	p := testParams(t, 5)
	kg := NewKeyGenerator(p, 11)
	sk := kg.GenSecretKey(SecretTernary)
	enc := NewEncryptor(p, sk, 12)

	gs := []uint64{3, 5, 9, 17, 33}
	keys := make(map[uint64]*GadgetCiphertext, len(gs))
	for _, g := range gs {
		keys[g] = kg.GenGaloisKey(g, sk)
	}
	msg := make([]int64, p.N())
	for i := range msg {
		msg[i] = int64(i % 7)
	}
	ct := enc.EncryptPolyAtLevel(encodeSigned(p, msg, p.MaxLevel()), p.MaxLevel(), 1)

	ks := NewKeySwitcher(p) // cold permCache
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				for _, g := range gs {
					_ = ks.Automorphism(ct, g, keys[g])
				}
			}
		}()
	}
	wg.Wait()

	// The cache must now serve every element without recomputation.
	for _, g := range gs {
		if got := ks.EnsurePerm(g); len(got) != p.N() {
			t.Fatalf("perm for g=%d has length %d, want %d", g, len(got), p.N())
		}
	}
}

// TestShoupPrecompViaMulScalar exercises the ring hot-path contract from
// the consumer side: a scalar ≥ q must round-trip through the internal
// reduce + precompute without panicking.
func TestShoupPrecompViaMulScalar(t *testing.T) {
	p := testParams(t, 4)
	r := p.QBasis.Rings[0]
	q := r.Mod.Q
	a := r.NewPoly()
	for i := range a {
		a[i] = uint64(i) % q
	}
	out := r.NewPoly()
	r.MulScalar(a, q+3, out) // would panic in bits.Div64 before the fix
	want := r.NewPoly()
	r.MulScalar(a, 3, want)
	if !r.Equal(out, want) {
		t.Fatal("MulScalar with unreduced scalar disagrees with reduced scalar")
	}
}

// gadgetShapes are (Q limbs, P limbs, dnum) triples whose digit windows
// cover the cases the decomposition distinguishes: even windows, a short
// last window, one limb per digit, and a single digit spanning all of Q.
var gadgetShapes = [][3]int{{4, 2, 2}, {5, 3, 2}, {3, 1, 3}, {3, 3, 1}, {6, 2, 3}}

// TestExternalProductCoeffMatchesINTT locks the coefficient-output external
// product bit for bit to INTT(ExternalProductInto), at every level and digit
// count, for NTT- and coefficient-form inputs, through the accumulating form
// the blind-rotation accumulator update runs: onto a zeroed accumulator it
// leaves the product's words and the accumulator's representation and scale,
// and with the accumulator as its own input (coefficient form) it adds the
// product of the input as it was.
func TestExternalProductCoeffMatchesINTT(t *testing.T) {
	const logN = 5
	for _, shape := range gadgetShapes {
		q := ring.GenerateNTTPrimes(40, logN, shape[0])
		pp := ring.GenerateNTTPrimesUp(40, logN, shape[1])
		p := MustParameters(logN, q, pp, ring.DefaultSigma, shape[2])
		kg := NewKeyGenerator(p, 21)
		sk := kg.GenSecretKey(SecretTernary)
		enc := NewEncryptor(p, sk, 22)
		rgsw := kg.GenRGSWConstant(1, sk)
		ks := NewKeySwitcher(p)
		sc := ks.NewScratch()
		msg := make([]int64, p.N())
		for i := range msg {
			msg[i] = int64(i%19) - 9
		}
		for level := 1; level <= p.MaxLevel(); level++ {
			b := p.QBasis.AtLevel(level)
			ctNTT := enc.EncryptPolyAtLevel(encodeSigned(p, msg, level), level, 1)
			ctCoeff := ctNTT.CopyNew()
			b.INTT(ctCoeff.C0)
			b.INTT(ctCoeff.C1)
			ctCoeff.IsNTT = false
			for _, ct := range []*Ciphertext{ctNTT, ctCoeff} {
				want := NewCiphertext(p, level)
				ks.ExternalProductInto(want, ct, rgsw, sc)
				b.INTT(want.C0)
				b.INTT(want.C1)

				got := NewCiphertext(p, level)
				got.IsNTT, got.Scale = false, 3
				ks.ExternalProductCoeffAddTo(got, ct, rgsw, sc)
				if got.IsNTT || got.Scale != 3 {
					t.Fatalf("shape %v level %d: accumulator metadata IsNTT=%v Scale=%v", shape, level, got.IsNTT, got.Scale)
				}
				if !b.Equal(want.C0, got.C0) || !b.Equal(want.C1, got.C1) {
					t.Fatalf("shape %v level %d inputNTT=%v: ExternalProductCoeffAddTo onto zero != INTT(ExternalProductInto)", shape, level, ct.IsNTT)
				}

				if ct.IsNTT {
					continue
				}
				inPlace := ct.CopyNew()
				ks.ExternalProductCoeffAddTo(inPlace, inPlace, rgsw, sc)
				b.Sub(inPlace.C0, ct.C0, inPlace.C0)
				b.Sub(inPlace.C1, ct.C1, inPlace.C1)
				if inPlace.IsNTT || !b.Equal(want.C0, inPlace.C0) || !b.Equal(want.C1, inPlace.C1) {
					t.Fatalf("shape %v level %d: in-place accumulating product differs", shape, level)
				}
			}
		}
	}
}

// TestDecomposeDigitMatchesFullExtension locks raiseLimb — which copies a limb
// inside the digit's own window and extends only into the others — to the full
// basis extension over every destination limb, for every (window, level) pair
// of each shape.
func TestDecomposeDigitMatchesFullExtension(t *testing.T) {
	const logN = 5
	s := ring.NewSampler(31)
	for _, shape := range gadgetShapes {
		q := ring.GenerateNTTPrimes(40, logN, shape[0])
		pp := ring.GenerateNTTPrimesUp(40, logN, shape[1])
		p := MustParameters(logN, q, pp, ring.DefaultSigma, shape[2])
		ks := NewKeySwitcher(p)
		sc := ks.NewScratch()
		alpha, L, nP := p.Alpha(), p.MaxLevel(), len(p.P)
		for level := 1; level <= L; level++ {
			cCoeff := p.QBasis.AtLevel(level).NewPoly()
			for i, r := range p.QBasis.Rings[:level] {
				s.UniformPoly(r, cCoeff.Limbs[i])
			}
			sc.job.level, sc.job.comps = level, 1
			sc.setInput(0, cCoeff, false, nil, nil)
			ks.run(sc, level, (*KeySwitcher).inputLimb)
			for j := 0; j < p.DigitsAtLevel(level); j++ {
				start, end := j*alpha, (j+1)*alpha
				if end > level {
					end = level
				}
				// Reference: extend the window into all level+|P| limbs, NTT.
				ys := p.QBasis.AtLevel(end - start).NewPoly().Limbs
				for i := range ys {
					ks.digitExt[j].ScaleLimb(end-start, i, cCoeff.Limbs[start+i], ys[i])
				}
				for tt := 0; tt < level+nP; tt++ {
					idx := ks.qpLimb(sc, tt)
					if tt >= level && idx != L+tt-level {
						t.Fatalf("shape %v level %d: task %d maps to QP limb %d", shape, level, tt, idx)
					}
					want := make(ring.Poly, p.N())
					ks.digitExt[j].ExtendLimb(ys, idx, want)
					p.QPBasis.Rings[idx].NTT(want)

					got := make(ring.Poly, p.N())
					ks.raiseLimb(sc, 0, j, idx, got)
					if !p.QPBasis.Rings[idx].Equal(want, got) {
						t.Fatalf("shape %v level %d digit %d limb %d: in-window copy differs from full extension", shape, level, j, idx)
					}
				}
			}
		}
	}
}

// TestExternalProductTransformBudget pins the limb-transform ledger of one
// external product at the paper's shape (7 Q limbs, 4 P limbs, dnum 2) on a
// coefficient-form input, the blind-rotation case: 2 components × 2 digits ×
// 11 limbs of digit raise, plus two ModDowns of 4 P-part inverse transforms
// and 7 Q-limb transforms each — 66 in either output form, every one of them
// reported to the recorder.
func TestExternalProductTransformBudget(t *testing.T) {
	const logN = 5
	p := MustParameters(logN, ring.GenerateNTTPrimes(40, logN, 7), ring.GenerateNTTPrimesUp(40, logN, 4), ring.DefaultSigma, 2)
	kg := NewKeyGenerator(p, 41)
	sk := kg.GenSecretKey(SecretTernary)
	rgsw := kg.GenRGSWConstant(1, sk)
	ct := NewEncryptor(p, sk, 42).EncryptZeroAtLevel(p.MaxLevel())
	p.QBasis.INTT(ct.C0)
	p.QBasis.INTT(ct.C1)
	ct.IsNTT = false
	ks := NewKeySwitcher(p)
	sc := ks.NewScratch()
	out := NewCiphertext(p, ct.Level())
	for _, product := range []func(out, ct *Ciphertext, rgsw *RGSWCiphertext, sc *Scratch){
		ks.ExternalProductInto,
		func(out, ct *Ciphertext, rgsw *RGSWCiphertext, sc *Scratch) { productCoeff(ks, out, ct, rgsw, sc) },
	} {
		met := obs.NewMetrics()
		ks.SetRecorder(met)
		product(out, ct, rgsw, sc)
		if got := met.Counter(obs.CounterNTT); got != 66 {
			t.Errorf("external product recorded %d limb transforms, want 66 (44 digit NTTs + 8 P-part + 14 Q-part in ModDown)", got)
		}
		if got := met.Counter(obs.CounterExternalProduct); got != 1 {
			t.Errorf("external product counter = %d, want 1", got)
		}
	}
}

// productCoeff is the coefficient-output external product as a test reads
// it: the accumulating form onto a zeroed coefficient-form accumulator, which
// leaves the product's words.
func productCoeff(ks *KeySwitcher, out, ct *Ciphertext, rgsw *RGSWCiphertext, sc *Scratch) {
	out.C0.Zero()
	out.C1.Zero()
	out.IsNTT = false
	ks.ExternalProductCoeffAddTo(out, ct, rgsw, sc)
}

// twoKeyProductCoeff writes the two-key product of a coefficient-form ct to
// out: the in-place iteration on a copy of ct, less ct.
func twoKeyProductCoeff(ks *KeySwitcher, out, ct *Ciphertext, k int, plus, minus *RGSWCiphertext, sc *Scratch) {
	b := ks.params.QBasis.AtLevel(ct.Level())
	for i := range ct.C0.Limbs {
		copy(out.C0.Limbs[i], ct.C0.Limbs[i])
		copy(out.C1.Limbs[i], ct.C1.Limbs[i])
	}
	out.IsNTT, out.Scale = false, ct.Scale
	ks.ExternalProductTwoKeyCoeffAddTo(out, k, plus, minus, sc)
	b.Sub(out.C0, ct.C0, out.C0)
	b.Sub(out.C1, ct.C1, out.C1)
}

// coeffForm moves an NTT-form ciphertext to coefficient representation in
// place and returns it.
func coeffForm(p *Parameters, ct *Ciphertext) *Ciphertext {
	b := p.QBasis.AtLevel(ct.Level())
	b.INTT(ct.C0)
	b.INTT(ct.C1)
	ct.IsNTT = false
	return ct
}

// TestExternalProductTwoKeyMatchesTwoProducts locks the two-key product to
// what it fuses — (X^k − 1)·ct through one key plus (X^{−k} − 1)·ct through
// the other, each rotated and differenced in the coefficient domain and
// multiplied on its own — at decrypt level, for every gadget shape and level,
// key constants on either side or both, and rotation amounts on both sides of
// the sign wrap. The two are not bit-identical (one decomposition of ct
// against two of its rotated differences); they must agree to within
// key-switch noise, far below the 2^30-sized message.
func TestExternalProductTwoKeyMatchesTwoProducts(t *testing.T) {
	const logN = 5
	for _, shape := range gadgetShapes {
		q := ring.GenerateNTTPrimes(40, logN, shape[0])
		pp := ring.GenerateNTTPrimesUp(41, logN, shape[1])
		p := MustParameters(logN, q, pp, ring.DefaultSigma, shape[2])
		n := p.N()
		kg := NewKeyGenerator(p, 51)
		sk := kg.GenSecretKey(SecretTernary)
		enc := NewEncryptor(p, sk, 52)
		dec := NewDecryptor(p, sk)
		ks := NewKeySwitcher(p)
		sc := ks.NewScratch()
		msg := make([]int64, n)
		for i := range msg {
			msg[i] = (int64(i%19) - 9) << 30
		}
		for _, consts := range [][2]int64{{1, 0}, {0, 1}, {1, 1}} {
			plus, minus := kg.GenRGSWConstant(consts[0], sk), kg.GenRGSWConstant(consts[1], sk)
			for level := 1; level <= p.MaxLevel(); level++ {
				b := p.QBasis.AtLevel(level)
				ct := coeffForm(p, enc.EncryptPolyAtLevel(encodeSigned(p, msg, level), level, 1))
				for _, k := range []int{1, n - 1, n, n + 3, 2*n - 1} {
					want := NewCiphertext(p, level)
					want.C0.Zero()
					want.C1.Zero()
					rot, prod := NewCiphertext(p, level), NewCiphertext(p, level)
					for _, side := range []struct {
						k    int
						rgsw *RGSWCiphertext
					}{{k, plus}, {-k, minus}} {
						rot.IsNTT = false
						for i, r := range b.Rings {
							r.MulByMonomialInto(ct.C0.Limbs[i], side.k, rot.C0.Limbs[i])
							r.MulByMonomialInto(ct.C1.Limbs[i], side.k, rot.C1.Limbs[i])
						}
						b.Sub(rot.C0, ct.C0, rot.C0)
						b.Sub(rot.C1, ct.C1, rot.C1)
						productCoeff(ks, prod, rot, side.rgsw, sc)
						b.Add(want.C0, prod.C0, want.C0)
						b.Add(want.C1, prod.C1, want.C1)
					}
					want.IsNTT = false

					got := NewCiphertext(p, level)
					twoKeyProductCoeff(ks, got, ct, k, plus, minus, sc)
					if d := dec.NoiseBits(got, dec.Phase(want)); d > 14 {
						t.Fatalf("shape %v level %d consts %v k=%d: two-key product is %.1f bits from the two separate products", shape, level, consts, k, d)
					}
				}
			}
		}
	}
}

// TestExternalProductTwoKeyBudget pins what the ternary blind-rotation
// iteration costs, at the paper's shape (Q7+P4) and heapd's (Q4+P2): the
// two-key product is ONE decomposition of each component and one pair of
// ModDowns — 66 and 36 limb transforms, a single external product's worth,
// counted as one — it skips the C1 half (22 and 12 digit transforms) on a
// trivial ciphertext, and with a warm arena it allocates nothing.
func TestExternalProductTwoKeyBudget(t *testing.T) {
	const logN = 5
	for _, c := range []struct {
		qLimbs, pLimbs int
		full, trivial  uint64
	}{{7, 4, 66, 44}, {4, 2, 36, 24}} {
		p := MustParameters(logN, ring.GenerateNTTPrimes(40, logN, c.qLimbs), ring.GenerateNTTPrimesUp(40, logN, c.pLimbs), ring.DefaultSigma, 2)
		kg := NewKeyGenerator(p, 43)
		sk := kg.GenSecretKey(SecretTernary)
		plus, minus := kg.GenRGSWConstant(0, sk), kg.GenRGSWConstant(1, sk)
		ct := coeffForm(p, NewEncryptor(p, sk, 44).EncryptZeroAtLevel(p.MaxLevel()))
		trivial := ct.CopyNew()
		trivial.C1.Zero()
		ks := NewKeySwitcher(p)
		sc := ks.NewScratch()
		for _, in := range []struct {
			ct   *Ciphertext
			want uint64
		}{{ct, c.full}, {trivial, c.trivial}} {
			met := obs.NewMetrics()
			ks.SetRecorder(met)
			out := in.ct.CopyNew()
			ks.ExternalProductTwoKeyCoeffAddTo(out, 5, plus, minus, sc)
			if got := met.Counter(obs.CounterNTT); got != in.want {
				t.Errorf("Q%d+P%d: two-key product recorded %d limb transforms, want %d", c.qLimbs, c.pLimbs, got, in.want)
			}
			if got := met.Counter(obs.CounterExternalProduct); got != 1 {
				t.Errorf("Q%d+P%d: external product counter = %d, want 1", c.qLimbs, c.pLimbs, got)
			}
		}
		ks.SetRecorder(nil)
		acc := ct.CopyNew()
		if avg := testing.AllocsPerRun(10, func() {
			ks.ExternalProductTwoKeyCoeffAddTo(acc, 5, plus, minus, sc)
		}); avg != 0 {
			t.Errorf("Q%d+P%d: two-key product allocates %.1f objects/op, want 0", c.qLimbs, c.pLimbs, avg)
		}
	}
}

// TestZeroC1SkipIsBitIdentical locks the trivial-ciphertext shortcut of the
// external product — an all-zero C1 decomposes into zero digits whose MACs add
// exact zeros to canonical accumulators, so its gadget half is not computed —
// to the computation it skips: the same kernels driven by hand over both
// components, zeros included, give the same words, in both output forms, and
// the shortcut costs the budget less the skipped half.
func TestZeroC1SkipIsBitIdentical(t *testing.T) {
	p, ks, ct, rgsw := hotpathFixture(t)
	level := ct.Level()
	b := p.QBasis.AtLevel(level)
	trivial := coeffForm(p, ct.CopyNew())
	trivial.C1.Zero()
	sc := ks.NewScratch()
	for _, coeff := range []bool{false, true} {
		sc.job.level, sc.job.comps = level, 2
		sc.setInput(0, trivial.C0, false, rgsw.C0, nil)
		sc.setInput(1, trivial.C1, false, rgsw.C1, nil)
		ks.gadgetProduct(sc, (*KeySwitcher).digitLimb)
		want := NewCiphertext(p, level)
		ks.modDownPair(want.C0, want.C1, coeff, overwrite, sc)

		met := obs.NewMetrics()
		ks.SetRecorder(met)
		got := NewCiphertext(p, level)
		ks.externalProduct(got, trivial, rgsw, coeff, overwrite, sc)
		ks.SetRecorder(nil)
		if !b.Equal(want.C0, got.C0) || !b.Equal(want.C1, got.C1) {
			t.Fatalf("coeff=%v: external product of a trivial ciphertext differs from the unskipped computation", coeff)
		}
		full := uint64(2*p.DigitsAtLevel(level)*(level+len(p.P)) + 2*(len(p.P)+level))
		skipped := uint64(p.DigitsAtLevel(level) * (level + len(p.P)))
		if n := met.Counter(obs.CounterNTT); n != full-skipped {
			t.Errorf("coeff=%v: trivial-ciphertext product recorded %d limb transforms, want %d − %d", coeff, n, full, skipped)
		}
	}
}

// TestNoiseBits checks the coefficient-domain noise referee on the cases it
// can be checked exactly: a trivial ciphertext off by a known amount, a fresh
// encryption (a few bits of Gaussian), equality, and a wrong expectation.
func TestNoiseBits(t *testing.T) {
	p := testParams(t, 5)
	kg := NewKeyGenerator(p, 61)
	sk := kg.GenSecretKey(SecretTernary)
	dec := NewDecryptor(p, sk)
	level := p.MaxLevel()
	b := p.QBasis.AtLevel(level)

	msg := make([]int64, p.N())
	for i := range msg {
		msg[i] = int64(i) << 20
	}
	want := b.NewPoly()
	b.SetSigned(msg, want)
	off := append([]int64(nil), msg...)
	off[7] -= 1 << 45 // the largest error, negative: centring must not hide it
	off[3] += 1000
	trivial := NewCiphertext(p, level)
	b.SetSigned(off, trivial.C0)
	trivial.IsNTT = false
	if got := dec.NoiseBits(trivial, want); got != 45 {
		t.Errorf("trivial ciphertext off by 2^45: NoiseBits = %v, want 45", got)
	}
	b.SetSigned(msg, trivial.C0)
	if got := dec.NoiseBits(trivial, want); got != 0 {
		t.Errorf("exact ciphertext: NoiseBits = %v, want 0", got)
	}

	fresh := NewEncryptor(p, sk, 62).EncryptPolyAtLevel(encodeSigned(p, msg, level), level, 1)
	if got := dec.NoiseBits(fresh, want); got < 1 || got > 6 {
		t.Errorf("fresh encryption: NoiseBits = %.2f, want a few bits of σ=%.1f Gaussian", got, p.Sigma)
	}
	if got := dec.NoiseBits(fresh, b.NewPoly()); got < 24 {
		t.Errorf("wrong expectation: NoiseBits = %.2f, want the message's size", got)
	}
}
