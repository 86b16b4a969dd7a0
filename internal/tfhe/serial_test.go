package tfhe

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"heap/internal/ring"
	"heap/internal/rlwe"
	"heap/internal/rns"
)

// The blind-rotate key blob is what the cluster streams to cold nodes and
// heapd receives from tenants, so its decoder faces the wire: corrupt or
// hostile bytes must never panic it, never make it allocate beyond what the
// input holds, and never parse one key kind's records as the other's.

// brkSerialFixture is a deliberately tiny parameter set (N = 4, one Q and one
// P limb, one digit: a 320-byte RGSW ciphertext) so the committed fuzz seeds
// stay small, plus one key of each kind under it.
var brkSerialFixture struct {
	once            sync.Once
	p               *rlwe.Parameters
	binary, ternary *BlindRotateKey
}

func brkSerial(t testing.TB) (*rlwe.Parameters, *BlindRotateKey, *BlindRotateKey) {
	t.Helper()
	fx := &brkSerialFixture
	fx.once.Do(func() {
		fx.p = rlwe.MustParameters(2, ring.GenerateNTTPrimes(24, 2, 1), ring.GenerateNTTPrimesUp(25, 2, 1), ring.DefaultSigma, 1)
		kg := rlwe.NewKeyGenerator(fx.p, 70)
		rsk := kg.GenSecretKey(rlwe.SecretTernary)
		fx.binary = GenBlindRotateKey(kg, &rlwe.LWESecretKey{Signed: []int64{1, 0}, Dist: rlwe.SecretBinary}, rsk)
		fx.ternary = GenBlindRotateKey(kg, &rlwe.LWESecretKey{Signed: []int64{-1, 1}, Dist: rlwe.SecretTernary}, rsk)
	})
	return fx.p, fx.binary, fx.ternary
}

func blob(t testing.TB, k *BlindRotateKey) []byte {
	t.Helper()
	b, err := k.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// brkSeeds are the committed seeds of FuzzReadBlindRotateKey, by corpus file
// name, with the error each must be refused with ("" for a valid blob).
func brkSeeds(t testing.TB) map[string]struct {
	data    []byte
	refusal string
} {
	_, bin, ter := brkSerial(t)
	binBlob, terBlob := blob(t, bin), blob(t, ter)
	withWord := func(b []byte, word int, v uint64) []byte {
		out := append([]byte(nil), b...)
		binary.LittleEndian.PutUint64(out[8*word:], v)
		return out
	}
	// Format 3: no version in the magic word, and a binary key's records
	// carry an Enc(0) Minus row — byte for byte a ternary blob's records.
	v3 := withWord(withWord(terBlob, 0, magicBRK), 2, 1)
	return map[string]struct {
		data    []byte
		refusal string
	}{
		"seed-binary":           {binBlob, ""},
		"seed-ternary":          {terBlob, ""},
		"seed-truncated-record": {binBlob[:len(binBlob)-100], "record 1"},
		"seed-v3":               {v3, "format v3"},
		"seed-flag-2":           {withWord(binBlob, 2, 2), "binary flag 2"},
		"seed-count-over":       {withWord(binBlob, 1, maxBRKKeys+1), "out of range"},
	}
}

// TestBRKBlobRoundTripsPerKind: each kind serializes to exactly
// BRKBlobBytes of its kind — one RGSW per record for a binary key, two for a
// ternary key — and reads back to the same bytes, but only as its own kind.
func TestBRKBlobRoundTripsPerKind(t *testing.T) {
	p, bin, ter := brkSerial(t)
	if 2*BRKRecordBytes(p, true) != BRKRecordBytes(p, false) {
		t.Fatalf("binary record %d bytes, ternary %d: want exactly half", BRKRecordBytes(p, true), BRKRecordBytes(p, false))
	}
	for _, k := range []*BlindRotateKey{bin, ter} {
		b := blob(t, k)
		if len(b) != BRKBlobBytes(p, k.NumKeys(), k.Binary) {
			t.Fatalf("binary=%v: blob is %d bytes, BRKBlobBytes says %d", k.Binary, len(b), BRKBlobBytes(p, k.NumKeys(), k.Binary))
		}
		got, err := DecodeBlindRotateKey(b, p, k.Binary)
		if err != nil {
			t.Fatal(err)
		}
		if got.Binary != k.Binary || got.NumKeys() != k.NumKeys() || (got.Minus == nil) != k.Binary {
			t.Fatalf("binary=%v: read back binary=%v with %d keys, %d Minus rows", k.Binary, got.Binary, got.NumKeys(), len(got.Minus))
		}
		if !bytes.Equal(blob(t, got), b) {
			t.Fatalf("binary=%v: round trip changed the blob", k.Binary)
		}
		if _, err := DecodeBlindRotateKey(b, p, !k.Binary); err == nil || !strings.Contains(err.Error(), "want binary") {
			t.Fatalf("binary=%v blob read as the other kind: %v", k.Binary, err)
		}
	}
	if _, err := (&BlindRotateKey{Plus: bin.Plus, Minus: ter.Minus, Binary: true}).AppendBinary(nil); err == nil {
		t.Fatal("a binary key with Minus rows was serialized")
	}
}

// retiredBRKBlob is the blob as the binary.Write encoders wrote it before the
// one-pass serializers: the header, then each record's gadget ciphertexts,
// header and limbs one binary.Write at a time.
func retiredBRKBlob(k *BlindRotateKey) []byte {
	var w bytes.Buffer
	bin := uint64(0)
	if k.Binary {
		bin = 1
	}
	_ = binary.Write(&w, binary.LittleEndian, []uint64{magicBRK | brkFormatVersion<<32, uint64(k.NumKeys()), bin})
	gadget := func(g *rlwe.GadgetCiphertext) {
		limbs := g.B[0].Level()
		_ = binary.Write(&w, binary.LittleEndian, []uint64{0x48454147, uint64(len(g.B)), uint64(limbs), uint64(len(g.B[0].Limbs[0]))})
		for j := range g.B {
			for _, poly := range []rns.Poly{g.B[j], g.A[j]} {
				for i := 0; i < limbs; i++ {
					_ = binary.Write(&w, binary.LittleEndian, []uint64(poly.Limbs[i]))
				}
			}
		}
	}
	for i := range k.Plus {
		gadget(k.Plus[i].C0)
		gadget(k.Plus[i].C1)
		if !k.Binary {
			gadget(k.Minus[i].C0)
			gadget(k.Minus[i].C1)
		}
	}
	return w.Bytes()
}

// TestBRKBlobMatchesRetiredEncoder: AppendBinary appends the retired
// encoder's bytes for a binary and a ternary key, at the fuzz
// fixture's one-digit ring and at a two-digit, four-limb one.
func TestBRKBlobMatchesRetiredEncoder(t *testing.T) {
	_, bin, ter := brkSerial(t)
	p := testParams(t)
	kg := rlwe.NewKeyGenerator(p, 61)
	rsk := kg.GenSecretKey(rlwe.SecretTernary)
	keys := []*BlindRotateKey{bin, ter,
		GenBlindRotateKey(kg, kg.GenLWESecretKey(3, rlwe.SecretBinary), rsk),
		GenBlindRotateKey(kg, kg.GenLWESecretKey(3, rlwe.SecretTernary), rsk)}
	for i, k := range keys {
		want := retiredBRKBlob(k)
		prefix := []byte("prefix")
		got, err := k.AppendBinary(prefix)
		if err != nil || !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("key %d (binary=%v): AppendBinary appended %d bytes unlike the retired encoder's %d (%v)", i, k.Binary, len(got)-len(prefix), len(want), err)
		}
	}
}

// TestBRKSeedsAreRefused: every hostile seed is refused with its own error,
// and the committed corpus is exactly these seeds, so the fuzz target's
// starting points cannot drift away from what they are named for.
func TestBRKSeedsAreRefused(t *testing.T) {
	p, _, _ := brkSerial(t)
	for name, seed := range brkSeeds(t) {
		_, errBin := DecodeBlindRotateKey(seed.data, p, true)
		_, errTer := DecodeBlindRotateKey(seed.data, p, false)
		switch {
		case seed.refusal == "":
			if (errBin == nil) == (errTer == nil) {
				t.Errorf("%s: valid blob must parse as exactly one kind (binary: %v, ternary: %v)", name, errBin, errTer)
			}
		case errBin == nil || errTer == nil || !strings.Contains(errBin.Error()+errTer.Error(), seed.refusal):
			t.Errorf("%s: want refusal %q, got binary: %v, ternary: %v", name, seed.refusal, errBin, errTer)
		}

		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzReadBlindRotateKey", name))
		if err != nil {
			t.Fatal(err)
		}
		body := strings.TrimSuffix(strings.TrimPrefix(string(raw), "go test fuzz v1\n[]byte("), ")\n")
		committed, err := strconv.Unquote(body)
		if err != nil || !bytes.Equal([]byte(committed), seed.data) {
			t.Errorf("%s: committed corpus file does not hold this seed (%v)", name, err)
		}
	}
}

// TestReadBlindRotateKeyAllocatesWhatArrives: a header announcing the most
// keys a blob may hold, followed by a single record, costs the decoder about
// one record of memory — not the 2²⁰-entry row slices the count announces.
func TestReadBlindRotateKeyAllocatesWhatArrives(t *testing.T) {
	p, bin, _ := brkSerial(t)
	b := blob(t, bin)
	binary.LittleEndian.PutUint64(b[8:], maxBRKKeys)
	b = b[:brkHeaderSize+BRKRecordBytes(p, true)]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeBlindRotateKey(b, p, true)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "record 1") {
		t.Fatalf("truncated blob: %v", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
		t.Fatalf("decoding one record under a %d-key header allocated %d bytes", maxBRKKeys, alloc)
	}
}

// FuzzReadBlindRotateKey: arbitrary bytes must never panic the decoder, and
// any blob it accepts, as either kind, must be a well-formed key of that kind
// that re-serializes to exactly the bytes it was read from.
func FuzzReadBlindRotateKey(f *testing.F) {
	p, _, _ := brkSerial(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range []bool{true, false} {
			k, err := DecodeBlindRotateKey(data, p, kind)
			if err != nil {
				continue
			}
			if k.Binary != kind {
				t.Fatalf("read as binary=%v, got binary=%v", kind, k.Binary)
			}
			if err := k.CheckShape(); err != nil {
				t.Fatalf("accepted key is malformed: %v", err)
			}
			out := blob(t, k)
			if !bytes.HasPrefix(data, out) {
				t.Fatal("accepted key does not re-serialize to the bytes it was read from")
			}
		}
	})
}
