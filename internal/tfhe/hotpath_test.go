package tfhe

import (
	"testing"

	"heap/internal/obs"
	"heap/internal/rlwe"
)

// TestBlindRotateIsATileOfOne: the allocating per-ciphertext entry point runs
// through the key-major engine — one rotation adds exactly one to
// blind_rotate_tiles and one to blind_rotates — and emits the per-ciphertext
// reference loop's words for both key types, including from a pooled arena
// the previous rotation left dirty.
func TestBlindRotateIsATileOfOne(t *testing.T) {
	for _, secret := range []rlwe.SecretDist{rlwe.SecretBinary, rlwe.SecretTernary} {
		t.Run(secretName(secret), func(t *testing.T) {
			p, ev, lut, brk, next := batchFixture(t, secret)
			sc := ev.NewScratch()
			want := rlwe.NewCiphertext(p, lut.Level)
			for rep := 0; rep < 2; rep++ {
				lwe := next()
				ev.rotateReference(want, lwe, lut, brk, sc)
				met := obs.NewMetrics()
				ev.KS.SetRecorder(met)
				got := ev.BlindRotate(lwe, lut, brk)
				ev.KS.SetRecorder(nil)
				if tiles, rots := met.Counter(obs.CounterBlindRotateTile), met.Counter(obs.CounterBlindRotate); tiles != 1 || rots != 1 {
					t.Fatalf("rep %d: BlindRotate counted %d tiles and %d rotations, want 1 and 1", rep, tiles, rots)
				}
				if !p.QBasis.Equal(want.C0, got.C0) || !p.QBasis.Equal(want.C1, got.C1) || got.IsNTT != want.IsNTT {
					t.Fatalf("rep %d: BlindRotate differs from the per-ciphertext reference", rep)
				}
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
