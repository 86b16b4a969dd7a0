package tfhe

import (
	"math/big"
	"testing"

	"heap/internal/ring"
	"heap/internal/rlwe"
)

func testParams(t *testing.T) *rlwe.Parameters {
	t.Helper()
	q := ring.GenerateNTTPrimes(40, 6, 2)
	p := ring.GenerateNTTPrimesUp(40, 6, 2)
	return rlwe.MustParameters(6, q, p, ring.DefaultSigma, 2)
}

// encryptLWEPhase builds an LWE ciphertext with exact phase u at modulus q
// under secret s (no encryption noise — phase exactness mirrors the
// floor-divided ciphertexts the bootstrapper feeds to BlindRotate).
func encryptLWEPhase(u int64, q uint64, s []int64, sampler *ring.Sampler) *rlwe.LWECiphertext {
	ct := &rlwe.LWECiphertext{A: make([]uint64, len(s)), Q: q}
	for i := range ct.A {
		ct.A[i] = sampler.UniformMod(q)
	}
	acc := uint64(((u % int64(q)) + int64(q)) % int64(q))
	for i, ai := range ct.A {
		switch s[i] {
		case 1:
			acc = (acc + q - ai) % q
		case -1:
			acc = (acc + ai) % q
		}
	}
	ct.B = acc
	return ct
}

func TestLUTMapping(t *testing.T) {
	p := testParams(t)
	n := p.N()
	g := func(u int) *big.Int { return big.NewInt(int64(u) * 1000) }
	lut := NewLUTFromBig(p, 1, g)
	r := p.QBasis.Rings[0]

	// Multiplying the LUT by X^u and reading the constant coefficient must
	// give g(signed(u)) for |signed(u)| < N/2.
	for _, u := range []int{0, 1, 5, n/2 - 1, 2*n - 1, 2*n - 7, 3*n/2 + 1} {
		rot := r.NewPoly()
		r.MulByMonomialInto(lut.Poly.Limbs[0], u, rot)
		signed := u % (2 * n)
		if signed >= n {
			signed -= 2 * n
		}
		want := int64(signed) * 1000
		if got := ring.CenteredRep(rot[0], r.Mod.Q); got != want {
			t.Errorf("u=%d: constant coeff %d want %d", u, got, want)
		}
	}
}

func TestBlindRotateComputesLUT(t *testing.T) {
	p := testParams(t)
	n := p.N()
	kg := rlwe.NewKeyGenerator(p, 30)
	rsk := kg.GenSecretKey(rlwe.SecretTernary)
	lweSK := kg.GenLWESecretKey(16, rlwe.SecretBinary)
	brk := GenBlindRotateKey(kg, lweSK, rsk)
	ev := NewEvaluator(p, nil)
	dec := rlwe.NewDecryptor(p, rsk)
	s := ring.NewSampler(31)

	lut := NewLUTFromBig(p, p.MaxLevel(), func(u int) *big.Int {
		return big.NewInt(int64(u) << 24)
	})
	for _, u := range []int64{0, 1, -1, 5, -9, int64(n/2) - 1, -int64(n / 2)} {
		lwe := encryptLWEPhase(u, uint64(2*n), lweSK.Signed, s)
		acc := ev.BlindRotate(lwe, lut, brk)
		acc2 := acc.CopyNew()
		p.QBasis.AtLevel(acc.Level()).NTT(acc2.C0)
		p.QBasis.AtLevel(acc.Level()).NTT(acc2.C1)
		acc2.IsNTT = true
		phase := dec.PhaseCentered(acc2)
		want := u << 24
		diff := new(big.Int).Sub(phase[0], big.NewInt(want))
		if diff.CmpAbs(big.NewInt(1<<20)) > 0 {
			t.Errorf("u=%d: blind rotate result off by %v", u, diff)
		}
	}
}

func TestBlindRotateTernarySecret(t *testing.T) {
	p := testParams(t)
	n := p.N()
	kg := rlwe.NewKeyGenerator(p, 32)
	rsk := kg.GenSecretKey(rlwe.SecretTernary)
	lweSK := kg.GenLWESecretKey(12, rlwe.SecretTernary)
	brk := GenBlindRotateKey(kg, lweSK, rsk)
	ev := NewEvaluator(p, nil)
	dec := rlwe.NewDecryptor(p, rsk)
	s := ring.NewSampler(33)

	lut := NewLUTFromBig(p, p.MaxLevel(), func(u int) *big.Int {
		return big.NewInt(int64(u) << 24)
	})
	for _, u := range []int64{3, -4, 11} {
		lwe := encryptLWEPhase(u, uint64(2*n), lweSK.Signed, s)
		acc := ev.BlindRotate(lwe, lut, brk)
		acc2 := acc.CopyNew()
		p.QBasis.AtLevel(acc.Level()).NTT(acc2.C0)
		p.QBasis.AtLevel(acc.Level()).NTT(acc2.C1)
		acc2.IsNTT = true
		phase := dec.PhaseCentered(acc2)
		diff := new(big.Int).Sub(phase[0], big.NewInt(u<<24))
		if diff.CmpAbs(big.NewInt(1<<20)) > 0 {
			t.Errorf("u=%d: ternary blind rotate off by %v", u, diff)
		}
	}
}

func TestCMux(t *testing.T) {
	p := testParams(t)
	kg := rlwe.NewKeyGenerator(p, 34)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	enc := rlwe.NewEncryptor(p, sk, 35)
	dec := rlwe.NewDecryptor(p, sk)
	ev := NewEvaluator(p, nil)

	level := p.MaxLevel()
	b := p.QBasis.AtLevel(level)
	mk := func(v int64) *rlwe.Ciphertext {
		msg := make([]int64, p.N())
		msg[0] = v
		pt := b.NewPoly()
		b.SetSigned(msg, pt)
		b.NTT(pt)
		return enc.EncryptPolyAtLevel(pt, level, 1)
	}
	ct0, ct1 := mk(1<<26), mk(-(1 << 25))

	for bit, want := range map[int64]int64{0: 1 << 26, 1: -(1 << 25)} {
		sel := kg.GenRGSWConstant(bit, sk)
		out := ev.CMux(sel, ct0, ct1)
		phase := dec.PhaseCentered(out)
		diff := new(big.Int).Sub(phase[0], big.NewInt(want))
		if diff.CmpAbs(big.NewInt(1<<20)) > 0 {
			t.Errorf("bit=%d: CMux result off by %v", bit, diff)
		}
	}
}

func TestProgrammableBootstrap(t *testing.T) {
	p := testParams(t)
	kg := rlwe.NewKeyGenerator(p, 36)
	rsk := kg.GenSecretKey(rlwe.SecretTernary)
	lweSK := kg.GenLWESecretKey(16, rlwe.SecretBinary)
	s := ring.NewSampler(37)
	keys := GenPBSKeySet(p, kg, lweSK, rsk, 10, s)
	ev := NewEvaluator(p, nil)

	tt := 8 // message space [-8, 8)
	square := func(m int) int64 { return int64(m * m % 8) }
	for _, m := range []int64{0, 1, 2, 3, -1, -2, -3} {
		ct := EncryptLWE(m, tt, p.Q[0], lweSK.Signed, s, p.Sigma)
		out := ev.ProgrammableBootstrap(ct, tt, square, keys)
		if got, want := DecodeLWE(out, lweSK.Signed, tt), square(int(m)); got != want {
			t.Errorf("PBS(x²) for m=%d: got %d want %d", m, got, want)
		}
	}
}

func TestInternalProductRows(t *testing.T) {
	p := testParams(t)
	kg := rlwe.NewKeyGenerator(p, 38)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	ev := NewEvaluator(p, nil)
	dec := rlwe.NewDecryptor(p, sk)

	// a encrypts the constant 1; the internal product must preserve each
	// row's phase up to external-product noise.
	a := kg.GenRGSWConstant(1, sk)
	msg := p.QPBasis.NewPoly()
	v := make([]int64, p.N())
	v[0] = 1 << 20
	p.QPBasis.SetSigned(v, msg)
	p.QPBasis.NTT(msg)
	b := kg.GenGadgetCiphertext(msg, sk)

	rows := ev.InternalProductRows(a, b)
	if len(rows) != b.Rows() {
		t.Fatalf("expected %d rows, got %d", b.Rows(), len(rows))
	}
	for j, row := range rows {
		wantRow := &rlwe.Ciphertext{C0: b.B[j].AtLevel(p.MaxLevel()), C1: b.A[j].AtLevel(p.MaxLevel()), IsNTT: true}
		wantPhase := dec.PhaseCentered(wantRow)
		gotPhase := dec.PhaseCentered(row)
		diff := new(big.Int).Sub(wantPhase[0], gotPhase[0])
		if diff.CmpAbs(big.NewInt(1<<18)) > 0 {
			t.Errorf("row %d: internal product changed phase by %v", j, diff)
		}
	}
}

// TestPBSNonlinearFunctions exercises the §III-A motivation directly: the
// blind-rotation function f programmed as sigmoid, ReLU and exponentiation
// over a small discretized domain.
func TestPBSNonlinearFunctions(t *testing.T) {
	p := testParams(t)
	kg := rlwe.NewKeyGenerator(p, 120)
	rsk := kg.GenSecretKey(rlwe.SecretTernary)
	lweSK := kg.GenLWESecretKey(16, rlwe.SecretBinary)
	s := ring.NewSampler(121)
	keys := GenPBSKeySet(p, kg, lweSK, rsk, 10, s)
	ev := NewEvaluator(p, nil)

	tt := 8
	funcs := []struct {
		name string
		f    func(m int) int64
	}{
		{"ReLU", func(m int) int64 {
			if m > 0 {
				return int64(m)
			}
			return 0
		}},
		{"sigmoid4", func(m int) int64 { // ⌊4·σ(m)⌉ over the integer domain
			switch {
			case m <= -2:
				return 0
			case m == -1:
				return 1
			case m == 0:
				return 2
			case m == 1:
				return 3
			default:
				return 3
			}
		}},
		{"exp2", func(m int) int64 { // 2^m clamped to the message space
			if m < 0 {
				return 0
			}
			v := int64(1) << uint(m)
			if v > 3 {
				v = 3
			}
			return v
		}},
	}
	for _, fn := range funcs {
		for _, m := range []int64{-3, -2, -1, 0, 1, 2, 3} {
			ct := EncryptLWE(m, tt, p.Q[0], lweSK.Signed, s, p.Sigma)
			out := ev.ProgrammableBootstrap(ct, tt, fn.f, keys)
			if got, want := DecodeLWE(out, lweSK.Signed, tt), fn.f(int(m)); got != want {
				t.Errorf("%s(%d): got %d want %d", fn.name, m, got, want)
			}
		}
	}
}
