package rlwe

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"testing"
	"unsafe"

	"heap/internal/ring"
	"heap/internal/rns"
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

	raw, err := ksk.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeGadgetCiphertext(raw, p)
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
	if raw, err = rgsw.AppendBinary(nil); err != nil {
		t.Fatal(err)
	}
	rgsw2, _, err := DecodeRGSWCiphertext(raw, p)
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

// The encoders as they were before the one-pass serializers: binary.Write of
// the header and then of each limb. TestSerializersMatchRetiredEncoders holds
// the wire bytes to them.

func retiredWriteCiphertext(w *bytes.Buffer, ct *Ciphertext) {
	level := ct.Level()
	hdr := []uint64{magicRLWE, uint64(level), uint64(len(ct.C0.Limbs[0])), boolU64(ct.IsNTT), math.Float64bits(ct.Scale)}
	_ = binary.Write(w, binary.LittleEndian, hdr)
	for _, poly := range []rns.Poly{ct.C0, ct.C1} {
		for i := 0; i < level; i++ {
			_ = binary.Write(w, binary.LittleEndian, []uint64(poly.Limbs[i]))
		}
	}
}

func retiredWriteLWE(w *bytes.Buffer, ct *LWECiphertext) {
	_ = binary.Write(w, binary.LittleEndian, []uint64{magicLWE, uint64(len(ct.A)), ct.Q, ct.B})
	_ = binary.Write(w, binary.LittleEndian, ct.A)
}

func retiredWriteGadget(w *bytes.Buffer, g *GadgetCiphertext) {
	limbs := g.B[0].Level()
	_ = binary.Write(w, binary.LittleEndian, []uint64{magicGadget, uint64(len(g.B)), uint64(limbs), uint64(len(g.B[0].Limbs[0]))})
	for j := range g.B {
		for _, poly := range []rns.Poly{g.B[j], g.A[j]} {
			for i := 0; i < limbs; i++ {
				_ = binary.Write(w, binary.LittleEndian, []uint64(poly.Limbs[i]))
			}
		}
	}
}

// TestSerializersMatchRetiredEncoders requires every one-pass encoder to
// produce the bytes of the binary.Write encoder it replaced — RLWE
// ciphertexts at every level, an LWE ciphertext, a gadget ciphertext and an
// RGSW ciphertext; a WriteTo to report their count, an AppendBinary to keep
// what it appends to — and every decoder to read them back word for word.
func TestSerializersMatchRetiredEncoders(t *testing.T) {
	p := testParams(t, 4)
	kg := NewKeyGenerator(p, 107)
	sk := kg.GenSecretKey(SecretTernary)
	enc := NewEncryptor(p, sk, 108)
	same := func(what string, got []byte, retired func(w *bytes.Buffer)) {
		t.Helper()
		var want bytes.Buffer
		retired(&want)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: %d bytes unlike the retired encoder's %d", what, len(got), want.Len())
		}
	}
	written := func(what string, write func(w io.Writer) (int64, error)) []byte {
		t.Helper()
		var buf bytes.Buffer
		if n, err := write(&buf); err != nil || int(n) != buf.Len() {
			t.Fatalf("%s: wrote %d bytes, reported %d (%v)", what, buf.Len(), n, err)
		}
		return buf.Bytes()
	}
	appended := func(what string, app func(b []byte) ([]byte, error)) []byte {
		t.Helper()
		out, err := app([]byte{7})
		if err != nil || out[0] != 7 {
			t.Fatalf("%s: AppendBinary lost what it appends to (%v)", what, err)
		}
		return out[1:]
	}

	for _, level := range []int{1, p.MaxLevel()} {
		ct := enc.EncryptZeroAtLevel(level)
		ct.Scale = 1.5e9
		what := fmt.Sprintf("RLWE level %d", level)
		raw := written(what, ct.WriteTo)
		same(what, raw, func(w *bytes.Buffer) { retiredWriteCiphertext(w, ct) })
		back, err := ReadCiphertext(bytes.NewReader(raw), p)
		if err != nil || back.Scale != ct.Scale || back.IsNTT != ct.IsNTT || !samePoly(back.C0, ct.C0) || !samePoly(back.C1, ct.C1) {
			t.Fatalf("%s does not read back: %v", what, err)
		}
	}

	s := ring.NewSampler(109)
	lwe := &LWECiphertext{A: make([]uint64, 37), Q: p.Q[0], B: 99}
	for i := range lwe.A {
		lwe.A[i] = s.UniformMod(lwe.Q)
	}
	raw := written("LWE", lwe.WriteTo)
	same("LWE", raw, func(w *bytes.Buffer) { retiredWriteLWE(w, lwe) })
	if back, err := ReadLWECiphertext(bytes.NewReader(raw)); err != nil || back.Q != lwe.Q || back.B != lwe.B || !slices.Equal(back.A, lwe.A) {
		t.Fatalf("LWE does not read back: %v", err)
	}

	gk := kg.GenRelinearizationKey(sk)
	raw = appended("gadget", gk.AppendBinary)
	same("gadget", raw, func(w *bytes.Buffer) { retiredWriteGadget(w, gk) })
	back, _, err := DecodeGadgetCiphertext(raw, p)
	if err != nil {
		t.Fatal(err)
	}
	for j := range gk.B {
		if !samePoly(back.B[j], gk.B[j]) || !samePoly(back.A[j], gk.A[j]) {
			t.Fatalf("gadget row %d does not read back", j)
		}
	}

	rgsw := kg.GenRGSWConstant(-1, sk)
	raw = appended("RGSW", rgsw.AppendBinary)
	same("RGSW", raw, func(w *bytes.Buffer) { retiredWriteGadget(w, rgsw.C0); retiredWriteGadget(w, rgsw.C1) })
	if _, _, err := DecodeRGSWCiphertext(raw, p); err != nil {
		t.Fatal(err)
	}
	if _, err := (&GadgetCiphertext{}).AppendBinary(nil); err == nil {
		t.Fatal("an empty gadget ciphertext was encoded")
	}
}

// samePoly reports whether a and b hold the same limbs, word for word.
func samePoly(a, b rns.Poly) bool {
	return slices.EqualFunc(a.Limbs, b.Limbs, func(x, y ring.Poly) bool { return slices.Equal(x, y) })
}

// TestDecodeGadgetSharesAlignedBytes: a gadget ciphertext decoded from an
// 8-byte-aligned buffer on a little-endian host is that buffer's memory — a
// received key is not copied beside the bytes it arrived in — while one
// decoded from a misaligned buffer is a copy with the same words. Either way
// the rest of the buffer comes back, and a buffer one byte short is refused.
func TestDecodeGadgetSharesAlignedBytes(t *testing.T) {
	p := testParams(t, 4)
	kg := NewKeyGenerator(p, 110)
	sk := kg.GenSecretKey(SecretTernary)
	raw, err := kg.GenRelinearizationKey(sk).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	inside := func(g *GadgetCiphertext, b []byte) bool {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
		at := uintptr(unsafe.Pointer(&g.B[0].Limbs[0][0]))
		return at >= lo && at < lo+uintptr(len(b))
	}
	tail := []byte{1, 2, 3}
	aligned, rest, err := DecodeGadgetCiphertext(append(raw[:len(raw):len(raw)], tail...), p)
	if err != nil || !bytes.Equal(rest, tail) {
		t.Fatalf("aligned decode: rest %v, err %v", rest, err)
	}
	if aligned, _, _ = DecodeGadgetCiphertext(raw, p); inside(aligned, raw) != littleEndian {
		t.Fatalf("little-endian host %v, but the decoded limbs share the buffer: %v", littleEndian, inside(aligned, raw))
	}
	shifted := append(make([]byte, 1, len(raw)+1), raw...)[1:]
	copied, _, err := DecodeGadgetCiphertext(shifted, p)
	if err != nil || inside(copied, shifted) {
		t.Fatalf("misaligned decode shares the buffer or failed: %v", err)
	}
	for j := range aligned.B {
		if !samePoly(aligned.B[j], copied.B[j]) || !samePoly(aligned.A[j], copied.A[j]) {
			t.Fatalf("row %d decodes differently from an aligned and a misaligned buffer", j)
		}
	}
	if _, _, err := DecodeGadgetCiphertext(raw[:len(raw)-1], p); err == nil {
		t.Fatal("a buffer one byte short was decoded")
	}
}
