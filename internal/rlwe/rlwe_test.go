package rlwe

import (
	"math/big"
	"testing"

	"heap/internal/ring"
	"heap/internal/rns"
)

func testParams(t *testing.T, logN int) *Parameters {
	t.Helper()
	q := ring.GenerateNTTPrimes(40, logN, 3)
	p := ring.GenerateNTTPrimesUp(40, logN, 2)
	return MustParameters(logN, q, p, ring.DefaultSigma, 2)
}

// encodeSigned builds an NTT-form plaintext over the Q basis at a level.
func encodeSigned(p *Parameters, v []int64, level int) rns.Poly {
	b := p.QBasis.AtLevel(level)
	pt := b.NewPoly()
	b.SetSigned(v, pt)
	b.NTT(pt)
	return pt
}

func maxAbsDiff(phase []*big.Int, want []int64) int64 {
	var worst int64
	for i := range want {
		d := new(big.Int).Sub(phase[i], big.NewInt(want[i]))
		if d.Sign() < 0 {
			d.Neg(d)
		}
		if !d.IsInt64() {
			return 1 << 62
		}
		if d.Int64() > worst {
			worst = d.Int64()
		}
	}
	return worst
}

func TestEncryptDecryptPhase(t *testing.T) {
	p := testParams(t, 5)
	kg := NewKeyGenerator(p, 1)
	sk := kg.GenSecretKey(SecretTernary)
	enc := NewEncryptor(p, sk, 2)
	dec := NewDecryptor(p, sk)

	msg := make([]int64, p.N())
	for i := range msg {
		msg[i] = int64(i*1000 - 16000)
	}
	for level := 1; level <= p.MaxLevel(); level++ {
		ct := enc.EncryptPolyAtLevel(encodeSigned(p, msg, level), level, 1)
		phase := dec.PhaseCentered(ct)
		if d := maxAbsDiff(phase, msg); d > 40 {
			t.Errorf("level %d: decryption error %d exceeds noise bound", level, d)
		}
	}
}

func TestEncryptZeroIsSmall(t *testing.T) {
	p := testParams(t, 4)
	kg := NewKeyGenerator(p, 3)
	sk := kg.GenSecretKey(SecretTernary)
	enc := NewEncryptor(p, sk, 4)
	dec := NewDecryptor(p, sk)
	ct := enc.EncryptZeroAtLevel(p.MaxLevel())
	phase := dec.PhaseCentered(ct)
	if d := maxAbsDiff(phase, make([]int64, p.N())); d > 40 {
		t.Errorf("zero encryption phase %d too large", d)
	}
	// And the ciphertext itself must not be trivially zero.
	nonzero := false
	for _, v := range ct.C1.Limbs[0] {
		if v != 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Error("c1 of a fresh encryption is zero")
	}
}

func TestGadgetFactorsIdentity(t *testing.T) {
	p := testParams(t, 4)
	factors := p.GadgetFactors()
	bigQ, bigP := p.BigQ(), p.BigP()
	alpha := p.Alpha()
	// Σ_j [x]_{Q_j} · g_j ≡ P·x (mod QP) for any x < Q.
	x := new(big.Int).Div(bigQ, big.NewInt(17))
	sum := new(big.Int)
	for j, f := range factors {
		qj := big.NewInt(1)
		for i := j * alpha; i < (j+1)*alpha && i < len(p.Q); i++ {
			qj.Mul(qj, new(big.Int).SetUint64(p.Q[i]))
		}
		xj := new(big.Int).Mod(x, qj)
		sum.Add(sum, new(big.Int).Mul(xj, f))
	}
	qp := new(big.Int).Mul(bigQ, bigP)
	want := new(big.Int).Mul(x, bigP)
	want.Mod(want, qp)
	sum.Mod(sum, qp)
	if sum.Cmp(want) != 0 {
		t.Errorf("gadget identity failed:\n got %v\nwant %v", sum, want)
	}
}

func TestKeySwitch(t *testing.T) {
	p := testParams(t, 5)
	kg := NewKeyGenerator(p, 5)
	sk1 := kg.GenSecretKey(SecretTernary)
	sk2 := kg.GenSecretKey(SecretTernary)
	ksk := kg.GenKeySwitchKey(sk1, sk2)
	ks := NewKeySwitcher(p)
	enc := NewEncryptor(p, sk1, 6)
	dec2 := NewDecryptor(p, sk2)

	msg := make([]int64, p.N())
	for i := range msg {
		msg[i] = int64(i)*100000 - 1600000
	}
	for _, level := range []int{1, 2, p.MaxLevel()} {
		ct := enc.EncryptPolyAtLevel(encodeSigned(p, msg, level), level, 1)
		d0, d1 := ks.SwitchPoly(ct.C1, ksk)
		b := p.QBasis.AtLevel(level)
		out := NewCiphertext(p, level)
		b.Add(ct.C0, d0, out.C0)
		out.C1 = d1
		phase := dec2.PhaseCentered(out)
		if d := maxAbsDiff(phase, msg); d > 1<<14 {
			t.Errorf("level %d: key-switch error %d too large", level, d)
		}
	}
}

func TestAutomorphismCiphertext(t *testing.T) {
	p := testParams(t, 5)
	kg := NewKeyGenerator(p, 7)
	sk := kg.GenSecretKey(SecretTernary)
	ks := NewKeySwitcher(p)
	enc := NewEncryptor(p, sk, 8)
	dec := NewDecryptor(p, sk)

	msg := make([]int64, p.N())
	for i := range msg {
		msg[i] = int64(i)*50000 + 7
	}
	for _, g := range []uint64{5, 25, uint64(2*p.N() - 1)} {
		gk := kg.GenGaloisKey(g, sk)
		level := p.MaxLevel()
		ct := enc.EncryptPolyAtLevel(encodeSigned(p, msg, level), level, 1)
		rot := ks.Automorphism(ct, g, gk)
		phase := dec.PhaseCentered(rot)

		// Expected: σ_g applied to msg.
		r0 := p.QBasis.Rings[0]
		mp := r0.NewPoly()
		ring.SignedToPoly(r0, msg, mp)
		want := r0.NewPoly()
		r0.Automorphism(mp, g, want)
		wantSigned := make([]int64, p.N())
		for i := range wantSigned {
			wantSigned[i] = ring.CenteredRep(want[i], r0.Mod.Q)
		}
		if d := maxAbsDiff(phase, wantSigned); d > 1<<14 {
			t.Errorf("g=%d: automorphism error %d too large", g, d)
		}
	}
}

func TestExternalProductByConstants(t *testing.T) {
	p := testParams(t, 5)
	kg := NewKeyGenerator(p, 9)
	sk := kg.GenSecretKey(SecretTernary)
	ks := NewKeySwitcher(p)
	enc := NewEncryptor(p, sk, 10)
	dec := NewDecryptor(p, sk)

	msg := make([]int64, p.N())
	for i := range msg {
		msg[i] = int64(i)*300000 - 100
	}
	level := p.MaxLevel()
	ct := enc.EncryptPolyAtLevel(encodeSigned(p, msg, level), level, 1)

	// RGSW(1) ⊡ ct ≈ ct
	one := kg.GenRGSWConstant(1, sk)
	out := ks.ExternalProduct(ct, one)
	if d := maxAbsDiff(dec.PhaseCentered(out), msg); d > 1<<14 {
		t.Errorf("RGSW(1) external product error %d", d)
	}

	// RGSW(0) ⊡ ct ≈ 0
	zero := kg.GenRGSWConstant(0, sk)
	out = ks.ExternalProduct(ct, zero)
	if d := maxAbsDiff(dec.PhaseCentered(out), make([]int64, p.N())); d > 1<<14 {
		t.Errorf("RGSW(0) external product error %d", d)
	}

	// RGSW(-1) ⊡ ct ≈ -ct
	neg := kg.GenRGSWConstant(-1, sk)
	out = ks.ExternalProduct(ct, neg)
	negMsg := make([]int64, p.N())
	for i := range negMsg {
		negMsg[i] = -msg[i]
	}
	if d := maxAbsDiff(dec.PhaseCentered(out), negMsg); d > 1<<14 {
		t.Errorf("RGSW(-1) external product error %d", d)
	}
}

func TestExternalProductByMonomial(t *testing.T) {
	p := testParams(t, 4)
	kg := NewKeyGenerator(p, 11)
	sk := kg.GenSecretKey(SecretTernary)
	ks := NewKeySwitcher(p)
	enc := NewEncryptor(p, sk, 12)
	dec := NewDecryptor(p, sk)

	msg := make([]int64, p.N())
	msg[0] = 1 << 22
	msg[3] = -(1 << 21)
	level := p.MaxLevel()
	ct := enc.EncryptPolyAtLevel(encodeSigned(p, msg, level), level, 1)

	// RGSW(X^k) ⊡ ct rotates the phase by k.
	k := 5
	qp := p.QPBasis
	mono := qp.NewPoly()
	mv := make([]int64, p.N())
	mv[k] = 1
	qp.SetSigned(mv, mono)
	qp.NTT(mono)
	monoS := qp.NewPoly()
	qp.MulCoeffs(mono, sk.NTTQP, monoS)
	rgsw := &RGSWCiphertext{C0: kg.GenGadgetCiphertext(mono, sk), C1: kg.GenGadgetCiphertext(monoS, sk)}
	out := ks.ExternalProduct(ct, rgsw)

	want := make([]int64, p.N())
	r0 := p.QBasis.Rings[0]
	mp := r0.NewPoly()
	ring.SignedToPoly(r0, msg, mp)
	rot := r0.NewPoly()
	r0.MulByMonomialInto(mp, k, rot)
	for i := range want {
		want[i] = ring.CenteredRep(rot[i], r0.Mod.Q)
	}
	if d := maxAbsDiff(dec.PhaseCentered(out), want); d > 1<<14 {
		t.Errorf("RGSW(X^k) external product error %d", d)
	}
}

func TestRelinearize(t *testing.T) {
	p := testParams(t, 5)
	kg := NewKeyGenerator(p, 13)
	sk := kg.GenSecretKey(SecretTernary)
	rlk := kg.GenRelinearizationKey(sk)
	ks := NewKeySwitcher(p)
	dec := NewDecryptor(p, sk)

	// Construct a degree-2 ciphertext (c0, c1, c2) with phase
	// c0 + c1·s + c2·s² by tensoring two fresh encryptions of messages.
	enc := NewEncryptor(p, sk, 14)
	m1 := make([]int64, p.N())
	m2 := make([]int64, p.N())
	m1[0], m2[0] = 1<<18, 1<<17 // constant messages keep the check simple
	level := p.MaxLevel()
	ct1 := enc.EncryptPolyAtLevel(encodeSigned(p, m1, level), level, 1)
	ct2 := enc.EncryptPolyAtLevel(encodeSigned(p, m2, level), level, 1)

	b := p.QBasis.AtLevel(level)
	d0, d1a, d1b, d2 := b.NewPoly(), b.NewPoly(), b.NewPoly(), b.NewPoly()
	b.MulCoeffs(ct1.C0, ct2.C0, d0)
	b.MulCoeffs(ct1.C0, ct2.C1, d1a)
	b.MulCoeffs(ct1.C1, ct2.C0, d1b)
	b.Add(d1a, d1b, d1a)
	b.MulCoeffs(ct1.C1, ct2.C1, d2)

	ks.Relinearize(d0, d1a, d2, rlk)
	out := &Ciphertext{C0: d0, C1: d1a, IsNTT: true}
	phase := dec.PhaseCentered(out)
	want := int64(1) << 35 // m1·m2 at the constant coefficient
	diff := new(big.Int).Sub(phase[0], big.NewInt(want))
	if diff.CmpAbs(big.NewInt(1<<25)) > 0 {
		t.Errorf("relinearized product constant term off by %v", diff)
	}
}

func TestSecretFromSignedAndHammingWeight(t *testing.T) {
	p := testParams(t, 4)
	kg := NewKeyGenerator(p, 15)
	signed := make([]int64, p.N())
	signed[0], signed[1], signed[5] = 1, -1, 1
	sk := kg.secretFromSigned(signed)
	if ring.CenteredRep(sk.NTTQP.Limbs[0][0], p.Q[0]) == 0 {
		// NTT form of a non-zero poly should generally be non-zero; just
		// sanity check the struct round-trips the signed values.
		t.Log("NTT constant slot is zero; acceptable but unusual")
	}
	lk := &LWESecretKey{Signed: signed[:8]}
	if lk.HammingWeight() != 3 {
		t.Errorf("hamming weight = %d want 3", lk.HammingWeight())
	}
}

func TestParameterValidation(t *testing.T) {
	q := ring.GenerateNTTPrimes(40, 4, 2)
	p := ring.GenerateNTTPrimesUp(40, 4, 1)
	if _, err := NewParameters(4, q, nil, 3.2, 1); err == nil {
		t.Error("expected error for empty P")
	}
	if _, err := NewParameters(4, q, p, 3.2, 5); err == nil {
		t.Error("expected error for dnum > len(Q)")
	}
	if _, err := NewParameters(4, append(q, q[0]), p, 3.2, 1); err == nil {
		t.Error("expected error for duplicate primes")
	}
	if _, err := NewParameters(1, q, p, 3.2, 1); err == nil {
		t.Error("expected error for tiny logN")
	}
	pr, err := NewParameters(4, q, p, 3.2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Alpha() != 1 || pr.DigitsAtLevel(2) != 2 || pr.DigitsAtLevel(1) != 1 {
		t.Errorf("digit accounting wrong: alpha=%d", pr.Alpha())
	}
}
