package rlwe

import (
	"bytes"
	"testing"

	"heap/internal/ring"
)

func TestCiphertextSerializationRoundTrip(t *testing.T) {
	p := testParams(t, 5)
	kg := NewKeyGenerator(p, 100)
	sk := kg.GenSecretKey(SecretTernary)
	enc := NewEncryptor(p, sk, 101)

	for _, level := range []int{1, 2, p.MaxLevel()} {
		ct := enc.EncryptZeroAtLevel(level)
		ct.Scale = 3.25e12

		var buf bytes.Buffer
		n, err := ct.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if size := CiphertextWireSize(p, level); int(n) != size || buf.Len() != size {
			t.Fatalf("level %d: wrote %d bytes, CiphertextWireSize says %d", level, n, size)
		}
		got, err := ReadCiphertext(&buf, p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Level() != level || got.IsNTT != ct.IsNTT || got.Scale != ct.Scale {
			t.Fatalf("level %d: metadata mismatch", level)
		}
		for i := 0; i < level; i++ {
			for j := range ct.C0.Limbs[i] {
				if got.C0.Limbs[i][j] != ct.C0.Limbs[i][j] || got.C1.Limbs[i][j] != ct.C1.Limbs[i][j] {
					t.Fatalf("level %d: coefficient mismatch at limb %d coeff %d", level, i, j)
				}
			}
		}
	}
}

func TestLWESerializationRoundTrip(t *testing.T) {
	s := ring.NewSampler(102)
	ct := &LWECiphertext{A: make([]uint64, 500), Q: 1 << 36, B: 12345}
	for i := range ct.A {
		ct.A[i] = s.UniformMod(ct.Q)
	}
	var buf bytes.Buffer
	n, err := ct.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if size := LWEWireSize(len(ct.A)); int(n) != size {
		t.Fatalf("wrote %d bytes, LWEWireSize says %d", n, size)
	}
	// §III-C: an LWE ciphertext at n_t=500 is ~2.3 KB of payload on the
	// paper's 36-bit packing; our 64-bit wire format is ~4 KB.
	got, err := ReadLWECiphertext(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.B != ct.B || got.Q != ct.Q || len(got.A) != len(ct.A) {
		t.Fatal("header mismatch")
	}
	for i := range ct.A {
		if got.A[i] != ct.A[i] {
			t.Fatalf("component %d mismatch", i)
		}
	}
}

func TestSerializationRejectsCorruptInput(t *testing.T) {
	p := testParams(t, 4)
	kg := NewKeyGenerator(p, 103)
	sk := kg.GenSecretKey(SecretTernary)
	enc := NewEncryptor(p, sk, 104)
	ct := enc.EncryptZeroAtLevel(2)

	var buf bytes.Buffer
	if _, err := ct.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Bad magic.
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xff
	if _, err := ReadCiphertext(bytes.NewReader(bad), p); err == nil {
		t.Error("corrupt magic accepted")
	}
	// Truncated stream.
	if _, err := ReadCiphertext(bytes.NewReader(raw[:len(raw)/2]), p); err == nil {
		t.Error("truncated ciphertext accepted")
	}
	// Out-of-range residue.
	bad = append([]byte(nil), raw...)
	for i := len(bad) - 8; i < len(bad); i++ {
		bad[i] = 0xff
	}
	if _, err := ReadCiphertext(bytes.NewReader(bad), p); err == nil {
		t.Error("out-of-range residue accepted")
	}
	// LWE bad magic.
	lwe := &LWECiphertext{A: []uint64{1, 2}, Q: 97, B: 3}
	var lb bytes.Buffer
	if _, err := lwe.WriteTo(&lb); err != nil {
		t.Fatal(err)
	}
	lraw := lb.Bytes()
	lraw[0] ^= 0xff
	if _, err := ReadLWECiphertext(bytes.NewReader(lraw)); err == nil {
		t.Error("corrupt LWE magic accepted")
	}
}

func TestGadgetAndRGSWSerialization(t *testing.T) {
	p := testParams(t, 4)
	kg := NewKeyGenerator(p, 105)
	sk1 := kg.GenSecretKey(SecretTernary)
	sk2 := kg.GenSecretKey(SecretTernary)
	ksk := kg.GenKeySwitchKey(sk1, sk2)

	var buf bytes.Buffer
	if _, err := ksk.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGadgetCiphertext(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	// The deserialized key must be functionally identical: key-switch a
	// ciphertext with both and compare outputs exactly.
	enc := NewEncryptor(p, sk1, 106)
	ct := enc.EncryptZeroAtLevel(p.MaxLevel())
	ks := NewKeySwitcher(p)
	d0a, d1a := ks.SwitchPoly(ct.C1, ksk)
	d0b, d1b := ks.SwitchPoly(ct.C1, got)
	for i := range d0a.Limbs {
		for j := range d0a.Limbs[i] {
			if d0a.Limbs[i][j] != d0b.Limbs[i][j] || d1a.Limbs[i][j] != d1b.Limbs[i][j] {
				t.Fatalf("deserialized key produced a different key switch at limb %d coeff %d", i, j)
			}
		}
	}

	// RGSW round trip.
	rgsw := kg.GenRGSWConstant(1, sk1)
	buf.Reset()
	if _, err := rgsw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	rgsw2, err := ReadRGSWCiphertext(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	if rgsw2.C0.Rows() != rgsw.C0.Rows() {
		t.Fatal("RGSW row count changed")
	}
	outA := ks.ExternalProduct(ct, rgsw)
	outB := ks.ExternalProduct(ct, rgsw2)
	for i := range outA.C0.Limbs {
		for j := range outA.C0.Limbs[i] {
			if outA.C0.Limbs[i][j] != outB.C0.Limbs[i][j] {
				t.Fatal("deserialized RGSW produced a different external product")
			}
		}
	}
}
