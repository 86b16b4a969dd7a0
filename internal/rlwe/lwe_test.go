package rlwe

import (
	"math/bits"
	"slices"
	"strings"
	"testing"

	"heap/internal/ring"
)

func TestExtractLWEMatchesPhase(t *testing.T) {
	p := testParams(t, 5)
	kg := NewKeyGenerator(p, 20)
	sk := kg.GenSecretKey(SecretTernary)
	enc := NewEncryptor(p, sk, 21)
	dec := NewDecryptor(p, sk)

	msg := make([]int64, p.N())
	for i := range msg {
		msg[i] = int64(i*7777 - 40000)
	}
	ct := enc.EncryptPolyAtLevel(encodeSigned(p, msg, 1), 1, 1)
	phase := dec.PhaseCentered(ct)

	ctCoeff := ct.CopyNew()
	p.QBasis.AtLevel(1).INTT(ctCoeff.C0)
	p.QBasis.AtLevel(1).INTT(ctCoeff.C1)
	ctCoeff.IsNTT = false

	for _, idx := range []int{0, 1, 7, p.N() - 1} {
		lwe := ExtractLWE(p, ctCoeff, idx)
		got := DecryptLWE(lwe, sk.Signed)
		if got != phase[idx].Int64() {
			t.Errorf("idx %d: extracted LWE phase %d != RLWE phase %v", idx, got, phase[idx])
		}
	}
}

func TestLWEKeySwitch(t *testing.T) {
	s := ring.NewSampler(22)
	q := uint64(1) << 40
	nFrom, nTo := 64, 16
	sFrom := s.TernarySigned(nFrom)
	sTo := s.BinarySigned(nTo)
	ksk := GenLWEKeySwitchKey(sFrom, sTo, q, 8, s, ring.DefaultSigma)

	for trial := 0; trial < 20; trial++ {
		msg := int64(s.UniformMod(1<<30)) - (1 << 29)
		ct := &LWECiphertext{A: make([]uint64, nFrom), Q: q}
		for i := range ct.A {
			ct.A[i] = s.UniformMod(q)
		}
		acc := signedModU(msg, q)
		for i, ai := range ct.A {
			switch sFrom[i] {
			case 1:
				acc = subModU(acc, ai, q)
			case -1:
				acc = addModU(acc, ai, q)
			}
		}
		ct.B = acc
		if got := DecryptLWE(ct, sFrom); got != msg {
			t.Fatalf("trial %d: self-check failed: %d != %d", trial, got, msg)
		}
		out := ksk.Apply(ct)
		got := DecryptLWE(out, sTo)
		diff := got - msg
		if diff < 0 {
			diff = -diff
		}
		if diff > 1<<16 {
			t.Errorf("trial %d: key-switch error %d too large", trial, diff)
		}
	}
}

func TestModSwitchLWE(t *testing.T) {
	s := ring.NewSampler(23)
	q := uint64(1) << 36
	n := 32
	sec := s.BinarySigned(n)
	newQ := uint64(1) << 12

	for trial := 0; trial < 50; trial++ {
		// Message on the coarse grid so mod switching is near-lossless.
		msg := (int64(s.UniformMod(1<<11)) - (1 << 10)) << 24
		ct := &LWECiphertext{A: make([]uint64, n), Q: q}
		for i := range ct.A {
			ct.A[i] = s.UniformMod(q)
		}
		acc := signedModU(msg, q)
		for i, ai := range ct.A {
			if sec[i] == 1 {
				acc = subModU(acc, ai, q)
			}
		}
		ct.B = acc
		out := ModSwitchLWE(ct, newQ)
		if out.Q != newQ {
			t.Fatal("modulus not updated")
		}
		got := DecryptLWE(out, sec)
		want := msg >> 24 // msg·newQ/q
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		// Rounding error ≤ (1 + Σ|s_i|)/2 ≈ n/4 + small.
		if diff > int64(n) {
			t.Errorf("trial %d: modswitch error %d (got %d want %d)", trial, diff, got, want)
		}
	}
}

func TestScaleUpLWEExact(t *testing.T) {
	s := ring.NewSampler(24)
	q := uint64(1) << 14
	n := 24
	sec := s.BinarySigned(n)
	for trial := 0; trial < 30; trial++ {
		msg := int64(s.UniformMod(q)) - int64(q/2)
		ct := &LWECiphertext{A: make([]uint64, n), Q: q}
		for i := range ct.A {
			ct.A[i] = s.UniformMod(q)
		}
		acc := signedModU(msg, q)
		for i, ai := range ct.A {
			if sec[i] == 1 {
				acc = subModU(acc, ai, q)
			}
		}
		ct.B = acc
		up := ScaleUpLWE(ct, 20)
		if up.Q != q<<20 {
			t.Fatal("scaled modulus wrong")
		}
		if got, want := DecryptLWE(up, sec), msg<<20; got != want {
			t.Fatalf("trial %d: scale-up not exact: %d != %d", trial, got, want)
		}
		// And switching straight back down must recover the message exactly.
		down := ModSwitchLWE(up, q)
		if got := DecryptLWE(down, sec); got != msg {
			t.Fatalf("trial %d: round trip lost message: %d != %d", trial, got, msg)
		}
	}
}

func TestPackRLWEs(t *testing.T) {
	p := testParams(t, 4)
	kg := NewKeyGenerator(p, 25)
	sk := kg.GenSecretKey(SecretTernary)
	ks := NewKeySwitcher(p)
	enc := NewEncryptor(p, sk, 26)
	dec := NewDecryptor(p, sk)
	n := p.N()

	for _, count := range []int{2, 4, n} {
		pk := kg.GenPackingKeys(sk)
		payload := make([]int64, count)
		cts := make([]*Ciphertext, count)
		level := p.MaxLevel()
		for i := 0; i < count; i++ {
			payload[i] = int64(i+1) << 24
			// Message with the payload in the constant coefficient and
			// garbage elsewhere — exactly what BlindRotate outputs.
			msg := make([]int64, n)
			msg[0] = payload[i]
			for j := 1; j < n; j++ {
				msg[j] = int64(j*i) << 20
			}
			cts[i] = coeffCopy(p, enc.EncryptPolyAtLevel(encodeSigned(p, msg, level), level, 1))
		}
		packed, err := pack(NewRepacker(ks, pk), cts)
		if err != nil {
			t.Fatal(err)
		}
		phase := dec.PhaseCentered(packed)

		stride := n / count
		for j := 0; j < n; j++ {
			var want int64
			if j%stride == 0 {
				want = payload[j/stride] * int64(n)
			}
			diff := phase[j].Int64() - want
			if diff < 0 {
				diff = -diff
			}
			if diff > 1<<20 {
				t.Errorf("count=%d coeff %d: packed value %v want %d (diff %d)",
					count, j, phase[j], want, diff)
			}
		}
	}
}

// refApply is the retired key switch, kept verbatim but for reading the flat
// key: every multiply-add goes through mulModU (two % and a 128-by-64
// division) and is reduced on the spot. It is the reference the lazy kernel
// must equal word for word.
func refApply(k *LWEKeySwitchKey, ct *LWECiphertext) *LWECiphertext {
	out := &LWECiphertext{A: make([]uint64, k.NTo), B: ct.B % k.Q, Q: k.Q}
	mask := uint64(1)<<uint(k.LogBase) - 1
	w := k.NTo + 1
	for i, ai := range ct.A {
		v := ai % k.Q
		for j := 0; j < k.Digits && v != 0; j++ {
			d := v & mask
			v >>= uint(k.LogBase)
			if d == 0 {
				continue
			}
			row := k.rows[(i*k.Digits+j)*w:][:w]
			out.B = addModU(out.B, mulModU(d, row[k.NTo], k.Q), k.Q)
			for t, at := range row[:k.NTo] {
				out.A[t] = addModU(out.A[t], mulModU(d, at, k.Q), k.Q)
			}
		}
	}
	return out
}

func lweEqual(a, b *LWECiphertext) bool {
	return a.Q == b.Q && a.B == b.B && slices.Equal(a.A, b.A)
}

// TestLWEKeySwitchMatchesStepwiseReference locks the two replacements of the
// LWE key switch to the retired kernel, word for word: Apply (one reduction
// per output word over 128-bit sums) against refApply over a prime limb, the
// bootstrap's power-of-two modulus, 2^61 and a 61-bit prime, and the
// key-major ExtractSwitchBatch (no extracted or lifted temporaries, a batch
// of five coefficients out of order) against the composition of the unfused
// helpers at the two power-of-two moduli — digit sizes from 1 to 8 bits,
// target dimensions from 1 to the paper's 500, on random inputs, all-(q−1)
// inputs and inputs whose every digit is maximal.
func TestLWEKeySwitchMatchesStepwiseReference(t *testing.T) {
	const nFrom = 32
	s := ring.NewSampler(0x1e)
	moduli := []struct {
		q       uint64
		scaleUp uint // the fused path runs at q >> scaleUp
	}{
		{testParams(t, 5).Q[0], 0},
		{uint64(2*nFrom) << 20, 20},
		{1 << 61, 30},
		{ring.GenerateNTTPrimes(61, 5, 1)[0], 0},
	}
	for _, m := range moduli {
		q, small := m.q, m.q>>m.scaleUp
		allMax := uint64(1)<<uint(bits.Len64(q-1)-1) - 1 // every digit below the top one is all ones
		if q&(q-1) == 0 {
			allMax = q - 1
		}
		for _, logBase := range []int{1, 4, 7, 8} {
			for _, nTo := range []int{1, 8, 500} {
				k := GenLWEKeySwitchKey(s.TernarySigned(nFrom), s.BinarySigned(nTo), q, logBase, s, ring.DefaultSigma)
				fill := func(f func() uint64) *LWECiphertext {
					ct := &LWECiphertext{A: make([]uint64, nFrom), B: f(), Q: q}
					for i := range ct.A {
						ct.A[i] = f()
					}
					return ct
				}
				inputs := []*LWECiphertext{
					fill(func() uint64 { return s.UniformMod(q) }),
					fill(func() uint64 { return q - 1 }),
					fill(func() uint64 { return allMax }),
					fill(func() uint64 { return 0 }),
				}
				for n, ct := range inputs {
					if got, want := k.Apply(ct), refApply(k, ct); !lweEqual(got, want) {
						t.Fatalf("q=%d logBase=%d nTo=%d input %d: Apply differs from the stepwise reference", q, logBase, nTo, n)
					}
				}

				// The key-major batch path runs at the bootstrap's
				// power-of-two key modulus only; it takes its input as the
				// polynomial pair the extraction reads, canonical mod
				// q >> scaleUp.
				if q&(q-1) != 0 {
					continue
				}
				polys := [][2][]uint64{{make([]uint64, nFrom), make([]uint64, nFrom)}, {make([]uint64, nFrom), make([]uint64, nFrom)}}
				for i := 0; i < nFrom; i++ {
					polys[0][0][i], polys[0][1][i] = s.UniformMod(small), s.UniformMod(small)
					polys[1][0][i], polys[1][1][i] = small-1, small-1
				}
				polys[0][1][3] = 0 // −0 must stay 0 past the wrap
				for n, c := range polys {
					idxs := []int{0, 1, nFrom / 2, nFrom - 1, 5}
					got := make([]*LWECiphertext, len(idxs))
					k.ExtractSwitchBatch(c[0], c[1], idxs, m.scaleUp, got)
					for l, idx := range idxs {
						up := ScaleUpLWE(ExtractLWEFromPolys(c[0], c[1], small, idx), m.scaleUp)
						want := ModSwitchLWE(refApply(k, up), small)
						if !lweEqual(got[l], want) {
							t.Fatalf("q=%d logBase=%d nTo=%d polys %d idx=%d: ExtractSwitchBatch differs from Extract→ScaleUp→Apply→ModSwitch", q, logBase, nTo, n, idx)
						}
					}
				}
			}
		}
	}
}

// TestLWEKeySwitchCarriesIntoHighWord makes sure the equality above covers
// the carry path: at a 61-bit modulus with maximal digits the unreduced sums
// spill far into their high words, and the one final reduction still lands
// on the stepwise residue.
func TestLWEKeySwitchCarriesIntoHighWord(t *testing.T) {
	const nFrom, nTo = 256, 8
	s := ring.NewSampler(0x1f)
	q := ring.GenerateNTTPrimes(61, 5, 1)[0]
	k := GenLWEKeySwitchKey(s.TernarySigned(nFrom), s.BinarySigned(nTo), q, 8, s, ring.DefaultSigma)
	ct := &LWECiphertext{A: make([]uint64, nFrom), B: q - 1, Q: q}
	for i := range ct.A {
		ct.A[i] = q - 1
	}
	acc := k.NewScratch()
	for i, ai := range ct.A {
		k.accumulate(acc, i, ai)
	}
	for w, sum := range acc {
		// ~nFrom·digits terms of up to 2^69 each: the high word holds
		// thousands of carries, not one.
		if sum.hi < 1<<10 {
			t.Fatalf("output word %d: high word %d — the input does not exercise the carry path", w, sum.hi)
		}
	}
	if !lweEqual(k.Apply(ct), refApply(k, ct)) {
		t.Fatal("Apply differs from the stepwise reference on sums that overflow 64 bits")
	}
}

// TestLWEKeySwitchRejectsWrongDimension: a ciphertext shorter than the key's
// source dimension used to be switched as a prefix (a wrong ciphertext, no
// error) and a longer one died indexing the key. Both are caller bugs and
// both now panic naming the two dimensions, as does the key-major batch
// path, which also refuses a modulus it cannot switch at (a prime).
func TestLWEKeySwitchRejectsWrongDimension(t *testing.T) {
	s := ring.NewSampler(0x20)
	q := uint64(1) << 30
	k := GenLWEKeySwitchKey(s.TernarySigned(16), s.BinarySigned(4), q, 7, s, ring.DefaultSigma)
	mustPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, want) {
				t.Errorf("%s: panic %q, want one naming %q", name, msg, want)
			}
		}()
		f()
	}
	mustPanic("short ciphertext", "dimension-15 ciphertext under a key from dimension 16", func() {
		k.Apply(&LWECiphertext{A: make([]uint64, 15), Q: q})
	})
	mustPanic("long ciphertext", "dimension-17 ciphertext under a key from dimension 16", func() {
		k.Apply(&LWECiphertext{A: make([]uint64, 17), Q: q})
	})
	mustPanic("short polynomial", "dimension-8 extraction under a key from dimension 16", func() {
		k.ExtractSwitchBatch(make([]uint64, 8), make([]uint64, 8), []int{0}, 10, make([]*LWECiphertext, 1))
	})
	prime := GenLWEKeySwitchKey(s.TernarySigned(16), s.BinarySigned(4), ring.GenerateNTTPrimes(30, 4, 1)[0], 7, s, ring.DefaultSigma)
	mustPanic("prime modulus", "power-of-two modulus", func() {
		prime.ExtractSwitchBatch(make([]uint64, 16), make([]uint64, 16), []int{0}, 0, make([]*LWECiphertext, 1))
	})
}
