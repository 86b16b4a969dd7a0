package tfhe

import (
	"math/big"
	"testing"

	"heap/internal/ring"
	"heap/internal/rlwe"
)

func blindRotateFixture(t *testing.T) (*rlwe.Parameters, *Evaluator, *LookupTable, *BlindRotateKey, *rlwe.LWECiphertext) {
	t.Helper()
	p := testParams(t)
	kg := rlwe.NewKeyGenerator(p, 40)
	rsk := kg.GenSecretKey(rlwe.SecretTernary)
	lweSK := kg.GenLWESecretKey(12, rlwe.SecretBinary)
	brk := GenBlindRotateKey(kg, lweSK, rsk)
	ev := NewEvaluator(p, nil)
	lut := NewLUTFromBig(p, p.MaxLevel(), func(u int) *big.Int {
		return big.NewInt(int64(u) << 24)
	})
	s := ring.NewSampler(41)
	lwe := encryptLWEPhase(5, uint64(2*p.N()), lweSK.Signed, s)
	return p, ev, lut, brk, lwe
}

// TestBlindRotateIntoMatchesBlindRotate locks in bit-identical accumulators
// between the allocating API and the in-place scratch-arena variant,
// including across scratch reuse (dirty accumulator and rot/d buffers from
// the previous rotation must not leak into the next).
func TestBlindRotateIntoMatchesBlindRotate(t *testing.T) {
	p, ev, lut, brk, lwe := blindRotateFixture(t)
	want := ev.BlindRotate(lwe, lut, brk)

	sc := ev.NewScratch()
	acc := rlwe.NewCiphertext(p, lut.Level)
	for rep := 0; rep < 2; rep++ {
		ev.BlindRotateInto(acc, lwe, lut, brk, sc)
		if !p.QBasis.Equal(want.C0, acc.C0) || !p.QBasis.Equal(want.C1, acc.C1) {
			t.Fatalf("rep %d: BlindRotateInto differs from BlindRotate", rep)
		}
		if acc.IsNTT != want.IsNTT {
			t.Fatalf("rep %d: representation mismatch", rep)
		}
	}
}

// TestBlindRotateIntoZeroAllocs is the allocation-regression lock for the
// full rotate→decompose→NTT→MAC schedule, for the binary CMux step and the
// ternary two-key step (whose extra scratch is sized by the warm-up rotation):
// with a warm arena and a reused accumulator, a steady-state blind rotation
// performs zero heap allocations.
func TestBlindRotateIntoZeroAllocs(t *testing.T) {
	for _, secret := range []rlwe.SecretDist{rlwe.SecretBinary, rlwe.SecretTernary} {
		t.Run(secretName(secret), func(t *testing.T) {
			_, ev, lut, brk, next := batchFixture(t, secret)
			if brk.Binary != (secret == rlwe.SecretBinary) {
				t.Fatalf("fixture key came out binary=%v", brk.Binary)
			}
			lwe := next()
			sc := ev.NewScratch()
			acc := rlwe.NewCiphertext(ev.Params, lut.Level)
			ev.BlindRotateInto(acc, lwe, lut, brk, sc) // warm the arena

			if avg := testing.AllocsPerRun(5, func() {
				ev.BlindRotateInto(acc, lwe, lut, brk, sc)
			}); avg != 0 {
				t.Fatalf("BlindRotateInto allocates %.1f objects/op, want 0", avg)
			}
		})
	}
}

func secretName(d rlwe.SecretDist) string {
	if d == rlwe.SecretBinary {
		return "binary"
	}
	return "ternary"
}
