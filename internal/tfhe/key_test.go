package tfhe

import (
	"bytes"
	"math/big"
	"testing"

	"heap/internal/ring"
	"heap/internal/rlwe"
)

// TestBinaryKeyCarriesNoMinusRows: a binary secret's key holds the Plus rows
// the rotation reads and nothing else — Minus is nil, and the resident size
// is exactly what the datapath streams per key index times the key count.
// A ternary key holds both halves, and the same identity holds for it.
func TestBinaryKeyCarriesNoMinusRows(t *testing.T) {
	p := testParams(t)
	kg := rlwe.NewKeyGenerator(p, 60)
	rsk := kg.GenSecretKey(rlwe.SecretTernary)
	for _, secret := range []rlwe.SecretDist{rlwe.SecretBinary, rlwe.SecretTernary} {
		t.Run(secretName(secret), func(t *testing.T) {
			brk := GenBlindRotateKey(kg, kg.GenLWESecretKey(12, secret), rsk)
			binary := secret == rlwe.SecretBinary
			if brk.Binary != binary {
				t.Fatalf("key came out binary=%v", brk.Binary)
			}
			if binary && brk.Minus != nil {
				t.Fatalf("binary key carries %d Minus rows", len(brk.Minus))
			}
			if !binary && len(brk.Minus) != brk.NumKeys() {
				t.Fatalf("ternary key has %d Minus rows for %d keys", len(brk.Minus), brk.NumKeys())
			}
			if err := brk.CheckShape(); err != nil {
				t.Fatal(err)
			}
			if got, want := brk.SizeBytes(), brk.NumKeys()*brk.PerKeyBytes(); got != want {
				t.Fatalf("SizeBytes = %d, want NumKeys·PerKeyBytes = %d", got, want)
			}
		})
	}
}

// TestBinaryRotationIgnoresAppendedZeroRows is the contract of dropping the
// Minus half: given the same Plus rows, a binary rotation is bit for bit the
// same whether or not Enc(0) Minus rows ride along — on the per-ciphertext
// reference loop and on the key-major batch path.
func TestBinaryRotationIgnoresAppendedZeroRows(t *testing.T) {
	sh := equivShape
	sh.secret = rlwe.SecretBinary
	fx := newRotFixture(t, sh, 61)
	withZeros := &BlindRotateKey{Plus: fx.brk.Plus, Minus: fx.encZeroRows(sh.n, 62), Binary: true}
	s := ring.NewSampler(63)
	twoN := uint64(2 * fx.p.N())
	const count = 6
	lwes := make([]*rlwe.LWECiphertext, count)
	for j := range lwes {
		lwes[j] = encryptLWEPhase(int64(j)-3, twoN, fx.lweSK.Signed, s)
	}
	level := fx.lut.Level
	equal := func(a, b *rlwe.Ciphertext) bool {
		qb := fx.p.QBasis.AtLevel(level)
		return qb.Equal(a.C0, b.C0) && qb.Equal(a.C1, b.C1)
	}

	sc := fx.ev.NewScratch()
	lean, fat := rlwe.NewCiphertext(fx.p, level), rlwe.NewCiphertext(fx.p, level)
	for j, lwe := range lwes {
		fx.ev.rotateReference(lean, lwe, fx.lut, fx.brk, sc)
		fx.ev.rotateReference(fat, lwe, fx.lut, withZeros, sc)
		if !equal(lean, fat) {
			t.Fatalf("per-ciphertext rotation %d changes with Enc(0) Minus rows appended", j)
		}
	}

	leanAccs, fatAccs := make([]*rlwe.Ciphertext, count), make([]*rlwe.Ciphertext, count)
	opts := BatchOptions{Workers: 2}
	if err := fx.ev.BlindRotateBatchInto(leanAccs, lwes, fx.lut, fx.brk, opts); err != nil {
		t.Fatal(err)
	}
	if err := fx.ev.BlindRotateBatchInto(fatAccs, lwes, fx.lut, withZeros, opts); err != nil {
		t.Fatal(err)
	}
	for j := range leanAccs {
		if !equal(leanAccs[j], fatAccs[j]) {
			t.Fatalf("batched rotation %d changes with Enc(0) Minus rows appended", j)
		}
	}
}

// TestTernarySecretWithoutMinusOneGetsTernaryKey: the key kind is read off
// the secret's distribution, not its sampled values. A ternary secret that
// drew no −1 still gets a ternary key (Minus rows, all RGSW(0)), and it
// rotates to the right table value through the two-key step.
func TestTernarySecretWithoutMinusOneGetsTernaryKey(t *testing.T) {
	p := testParams(t)
	kg := rlwe.NewKeyGenerator(p, 64)
	rsk := kg.GenSecretKey(rlwe.SecretTernary)
	lweSK := &rlwe.LWESecretKey{Signed: []int64{1, 0, 1, 1, 0, 0, 1, 0}, Dist: rlwe.SecretTernary}
	brk := GenBlindRotateKey(kg, lweSK, rsk)
	if brk.Binary || len(brk.Minus) != len(lweSK.Signed) {
		t.Fatalf("ternary secret without a −1 got binary=%v and %d Minus rows", brk.Binary, len(brk.Minus))
	}
	fx := &rotFixture{p: p, ev: NewEvaluator(p, nil), dec: rlwe.NewDecryptor(p, rsk), rsk: rsk, lweSK: lweSK, brk: brk}
	fx.lut = NewLUTFromBig(p, p.MaxLevel(), func(u int) *big.Int { return big.NewInt(int64(u)<<lutShift + 1) })
	s := ring.NewSampler(65)
	for _, u := range []int64{0, 5, -7} {
		acc := fx.ev.BlindRotate(encryptLWEPhase(u, uint64(2*p.N()), lweSK.Signed, s), fx.lut, brk)
		if got := fx.decoded(acc); got != u {
			t.Fatalf("u=%d: decodes to %d", u, got)
		}
	}

	// The same values declared binary make a binary key; a −1 in a secret
	// declared binary is refused.
	if !GenBlindRotateKey(kg, &rlwe.LWESecretKey{Signed: lweSK.Signed, Dist: rlwe.SecretBinary}, rsk).Binary {
		t.Fatal("binary secret got a ternary key")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a −1 in a binary secret was accepted")
		}
	}()
	GenBlindRotateKey(kg, &rlwe.LWESecretKey{Signed: []int64{1, -1}, Dist: rlwe.SecretBinary}, rsk)
}

// TestCheckShape: a key's rows must match its kind, and every row must be
// there: a warm prefix with nil rows past it is refused like any hole.
func TestCheckShape(t *testing.T) {
	p := testParams(t)
	kg := rlwe.NewKeyGenerator(p, 66)
	rsk := kg.GenSecretKey(rlwe.SecretTernary)
	row := kg.GenRGSWConstant(0, rsk)
	rows := func(held ...bool) []*rlwe.RGSWCiphertext {
		out := make([]*rlwe.RGSWCiphertext, len(held))
		for i, h := range held {
			if h {
				out[i] = row
			}
		}
		return out
	}
	for _, c := range []struct {
		name string
		key  *BlindRotateKey
		ok   bool
	}{
		{"binary", &BlindRotateKey{Plus: rows(true, true, true), Binary: true}, true},
		{"binary-warm-prefix", &BlindRotateKey{Plus: rows(true, false, false), Binary: true}, false},
		{"binary-cold", &BlindRotateKey{Plus: rows(false, false, false), Binary: true}, false},
		{"binary-with-minus", &BlindRotateKey{Plus: rows(true, true), Minus: rows(true, true), Binary: true}, false},
		{"binary-hole", &BlindRotateKey{Plus: rows(true, false, true), Binary: true}, false},
		{"ternary", &BlindRotateKey{Plus: rows(true, true), Minus: rows(true, true)}, true},
		{"ternary-warm-prefix", &BlindRotateKey{Plus: rows(true, false), Minus: rows(true, false)}, false},
		{"ternary-missing-minus", &BlindRotateKey{Plus: rows(true, true)}, false},
		{"ternary-short-minus", &BlindRotateKey{Plus: rows(true, true), Minus: rows(true)}, false},
		{"ternary-minus-hole", &BlindRotateKey{Plus: rows(true, true), Minus: rows(true, false)}, false},
		{"ternary-minus-past-prefix", &BlindRotateKey{Plus: rows(true, false), Minus: rows(true, true)}, false},
	} {
		if err := c.key.CheckShape(); (err == nil) != c.ok {
			t.Errorf("%s: CheckShape = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestGenBlindRotateKeyMatchesPerIndexRows: the key, generated as one
// pipeline of rows, is the one index-by-index GenRGSWConstant calls (Plus,
// then Minus for a ternary key) draw from the same seed, byte for byte, at a
// ring whose key generation fans out.
func TestGenBlindRotateKeyMatchesPerIndexRows(t *testing.T) {
	p := rlwe.MustParameters(10, ring.GenerateNTTPrimes(36, 10, 2), ring.GenerateNTTPrimesUp(37, 10, 1), ring.DefaultSigma, 2)
	for _, secret := range []rlwe.SecretDist{rlwe.SecretBinary, rlwe.SecretTernary} {
		t.Run(secretName(secret), func(t *testing.T) {
			kg, ref := rlwe.NewKeyGenerator(p, 62), rlwe.NewKeyGenerator(p, 62)
			rsk, refSK := kg.GenSecretKey(rlwe.SecretTernary), ref.GenSecretKey(rlwe.SecretTernary)
			lwe := kg.GenLWESecretKey(4, secret)
			ref.GenLWESecretKey(4, secret)
			want := &BlindRotateKey{Binary: secret == rlwe.SecretBinary}
			for _, s := range lwe.Signed {
				want.Plus = append(want.Plus, ref.GenRGSWConstant(max(s, 0), refSK))
				if !want.Binary {
					want.Minus = append(want.Minus, ref.GenRGSWConstant(max(-s, 0), refSK))
				}
			}
			if !bytes.Equal(blob(t, GenBlindRotateKey(kg, lwe, rsk)), blob(t, want)) {
				t.Fatal("the pipelined key differs from the per-index rows")
			}
		})
	}
}
