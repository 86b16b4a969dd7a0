package rlwe

import (
	"sync"
	"testing"

	"heap/internal/obs"
	"heap/internal/ring"
	"heap/internal/rns"
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
// count, for NTT- and coefficient-form inputs, and with the output written
// over the input — the form the blind-rotation accumulator update runs.
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
				ks.ExternalProductCoeffInto(got, ct, rgsw, sc)
				if got.IsNTT || got.Scale != ct.Scale {
					t.Fatalf("shape %v level %d: coefficient-output metadata IsNTT=%v Scale=%v", shape, level, got.IsNTT, got.Scale)
				}
				if !b.Equal(want.C0, got.C0) || !b.Equal(want.C1, got.C1) {
					t.Fatalf("shape %v level %d inputNTT=%v: ExternalProductCoeffInto != INTT(ExternalProductInto)", shape, level, ct.IsNTT)
				}

				inPlace := ct.CopyNew()
				ks.ExternalProductCoeffInto(inPlace, inPlace, rgsw, sc)
				if inPlace.IsNTT || !b.Equal(want.C0, inPlace.C0) || !b.Equal(want.C1, inPlace.C1) {
					t.Fatalf("shape %v level %d inputNTT=%v: in-place coefficient-output product differs", shape, level, ct.IsNTT)
				}
			}
		}
	}
}

// TestDecomposeDigitMatchesFullExtension locks decomposeDigit — which copies
// the limbs inside the digit's own window and extends only into the others —
// to the full basis extension over every destination limb, for every
// (window, level) pair of each shape.
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
			for j := 0; j < p.DigitsAtLevel(level); j++ {
				start, end := j*alpha, (j+1)*alpha
				if end > level {
					end = level
				}
				// Reference: extend the window into all level+|P| limbs, NTT.
				want := qpAccumulator{q: p.QBasis.AtLevel(level).NewPoly(), p: p.PBasis.NewPoly()}
				all := rns.Poly{Limbs: append(append([]ring.Poly{}, want.q.Limbs...), want.p.Limbs...)}
				dstIdx := make([]int, 0, level+nP)
				for i := 0; i < level; i++ {
					dstIdx = append(dstIdx, i)
				}
				for i := 0; i < nP; i++ {
					dstIdx = append(dstIdx, L+i)
				}
				src := rns.Poly{Limbs: cCoeff.Limbs[start:end]}
				ks.extenders[start<<16|end].ExtendSelectedWith(src, all, dstIdx, rns.NewExtendScratch(alpha, p.N()))
				p.QBasis.NTT(want.q)
				p.PBasis.NTT(want.p)

				got := sc.dig.atLevel(level)
				ks.decomposeDigit(j, level, cCoeff, got, sc)
				if !p.QBasis.AtLevel(level).Equal(want.q, got.q) || !p.PBasis.Equal(want.p, got.p) {
					t.Fatalf("shape %v level %d digit %d: in-window copy differs from full extension", shape, level, j)
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
	for _, product := range []func(out, ct *Ciphertext, rgsw *RGSWCiphertext, sc *Scratch){ks.ExternalProductInto, ks.ExternalProductCoeffInto} {
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
