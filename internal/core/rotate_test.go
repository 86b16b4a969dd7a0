package core

import (
	"testing"

	"heap/internal/ckks"
	"heap/internal/obs"
	"heap/internal/ring"
	"heap/internal/rlwe"
)

// rotateFixture builds a bootstrapper at N = 2⁶ holding a binary (n_t mode)
// or a ternary (exact mode) blind-rotate key, plus one prepared LWE
// ciphertext to rotate under it.
func rotateFixture(t *testing.T, binary bool) (*Bootstrapper, *rlwe.LWECiphertext) {
	t.Helper()
	const logN = 6
	q := ring.GenerateNTTPrimes(30, logN, 3)
	p := ring.GenerateNTTPrimesUp(31, logN, 2)
	params := ckks.MustParameters(logN, q, p, ring.DefaultSigma, 2, float64(uint64(1)<<28), 1<<(logN-1))
	kg := rlwe.NewKeyGenerator(params.Parameters, 70)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	cfg := DefaultConfig()
	cfg.NT, cfg.Workers = 0, 1
	if binary {
		cfg.NT = 24
	}
	bt, err := NewBootstrapper(params, kg, sk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bt.BlindRotateKey().Binary != binary {
		t.Fatalf("fixture key came out binary=%v", bt.BlindRotateKey().Binary)
	}
	ct := ckks.NewClient(params, sk, 71).EncryptAtLevel(testVector(params.Slots), 1)
	return bt, bt.PrepareSparse(ct, 1).LWEs[0]
}

func keyName(binary bool) string {
	if binary {
		return "binary"
	}
	return "ternary"
}

// TestBlindRotateOneIsATileOfOne: a secondary's unit of work runs through the
// key-major engine, so blind_rotate_tiles counts it — exactly one tile and
// one rotation per call, for either key type.
func TestBlindRotateOneIsATileOfOne(t *testing.T) {
	for _, binary := range []bool{true, false} {
		t.Run(keyName(binary), func(t *testing.T) {
			bt, lwe := rotateFixture(t, binary)
			met := obs.NewMetrics()
			bt.SetRecorder(met)
			bt.BlindRotateOne(lwe)
			bt.SetRecorder(nil)
			if tiles, rots := met.Counter(obs.CounterBlindRotateTile), met.Counter(obs.CounterBlindRotate); tiles != 1 || rots != 1 {
				t.Fatalf("BlindRotateOne counted %d tiles and %d rotations, want 1 and 1", tiles, rots)
			}
		})
	}
}

// TestBlindRotateOneIntoZeroAllocs is the allocation-regression lock for the
// full rotate→decompose→NTT→MAC schedule of one rotation, for the binary CMux
// step and the ternary two-key step (whose extra scratch is sized by the
// warm-up rotation): with a warm arena and a reused accumulator, a
// steady-state BlindRotateOneInto performs zero heap allocations and writes
// the words BlindRotateOne returns.
func TestBlindRotateOneIntoZeroAllocs(t *testing.T) {
	for _, binary := range []bool{true, false} {
		t.Run(keyName(binary), func(t *testing.T) {
			bt, lwe := rotateFixture(t, binary)
			sc, acc := bt.NewRotateScratch(), bt.NewAccumulator()
			bt.BlindRotateOneInto(acc, lwe, sc) // warm the arena
			assertAccEqual(t, 0, acc, bt.BlindRotateOne(lwe))

			if avg := testing.AllocsPerRun(5, func() {
				bt.BlindRotateOneInto(acc, lwe, sc)
			}); avg != 0 {
				t.Fatalf("BlindRotateOneInto allocates %.1f objects/op, want 0", avg)
			}
		})
	}
}
