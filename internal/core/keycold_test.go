package core

import (
	"errors"
	"slices"
	"testing"

	"heap/internal/ckks"
	"heap/internal/ring"
	"heap/internal/rlwe"
	"heap/internal/tfhe"
)

// recoverKeyCold runs f and returns the error it panicked with, or nil.
func recoverKeyCold(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err, _ = r.(error)
			if err == nil {
				err = errors.New("panic with a non-error value")
			}
		}
	}()
	f()
	return nil
}

// TestKeyColdRefusesKeyedEntryPoints: a ColdStart n_t-mode bootstrapper is
// built from the parameters alone (no key generator, no secret) and holds no
// key, and every entry point that needs one refuses with ErrKeyCold — the
// ones that return an error return it, the others panic with it — instead of
// dereferencing a nil key inside rlwe or tfhe. The prepared bootstrap and
// the accumulators it is handed come from a warm tenant at the same
// parameters.
func TestKeyColdRefusesKeyedEntryPoints(t *testing.T) {
	params, cl, _, tenant := testSetup(t, 1)
	cfg := tenant.Cfg
	cfg.ColdStart = true
	cold, err := NewBootstrapper(params, nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if kb := cold.KeyBytes(); kb != (KeyBytes{}) {
		t.Fatalf("cold bootstrapper holds keys: %v", kb)
	}

	const count = 8
	ct := cl.EncryptAtLevel(testVector(params.Slots), 1)
	prep := tenant.PrepareSparse(ct, count)
	accs := func() []*rlwe.Ciphertext {
		out := make([]*rlwe.Ciphertext, count)
		for i := range out {
			out[i] = cold.NewAccumulator()
		}
		return out
	}
	acc := cold.NewAccumulator()

	returning := map[string]func() error{
		"Finish": func() error { _, err := cold.Finish(prep, accs()); return err },
		"FinishMerged": func() error {
			_, err := cold.FinishMerged(prep, acc)
			return err
		},
		"NewMergeCollector": func() error { _, err := cold.NewMergeCollector(count); return err },
		"BlindRotateBatch": func() error {
			return cold.BlindRotateBatch(make([]*rlwe.Ciphertext, count), prep.LWEs, tfhe.BatchOptions{Workers: 1})
		},
	}
	for name, f := range returning {
		if err := f(); !errors.Is(err, ErrKeyCold) {
			t.Errorf("%s on a cold bootstrapper: %v, want ErrKeyCold", name, err)
		}
	}
	panicking := map[string]func(){
		"PrepareSparse":   func() { cold.PrepareSparse(ct, count) },
		"CompleteMissing": func() { cold.CompleteMissing(prep, make([]*rlwe.Ciphertext, count)) },
		"Bootstrap":       func() { cold.Bootstrap(ct) },
		"BootstrapSparse": func() { cold.BootstrapSparse(ct, count) },
		"BlindRotateOne":  func() { cold.BlindRotateOne(prep.LWEs[0]) },
		"BlindRotateTile": func() {
			cold.BlindRotateTile([]*rlwe.Ciphertext{acc}, prep.LWEs[:1], cold.NewRotateScratch())
		},
		"BlindRotateOneInto": func() { cold.BlindRotateOneInto(acc, prep.LWEs[0], cold.NewRotateScratch()) },
	}
	for name, f := range panicking {
		if err := recoverKeyCold(f); !errors.Is(err, ErrKeyCold) {
			t.Errorf("%s on a cold bootstrapper: panic %v, want ErrKeyCold", name, err)
		}
	}
}

// TestKeyColdExactPrepareMatchesWarm: the exact mode's Prepare uses no key,
// so a key-cold bootstrapper prepares a ciphertext word for word as a warm
// one does, dense and sparse.
func TestKeyColdExactPrepareMatchesWarm(t *testing.T) {
	const logN = 6
	q := ring.GenerateNTTPrimes(30, logN, 3)
	p := ring.GenerateNTTPrimesUp(31, logN, 2)
	params := ckks.MustParameters(logN, q, p, ring.DefaultSigma, 2, float64(uint64(1)<<28), 1<<(logN-1))
	kg := rlwe.NewKeyGenerator(params.Parameters, 70)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	cfg := DefaultConfig()
	cfg.NT, cfg.Workers = 0, 2
	warm, err := NewBootstrapper(params, kg, sk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ColdStart = true
	cold, err := NewBootstrapper(params, nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ct := ckks.NewClient(params, sk, 71).EncryptAtLevel(testVector(params.Slots), 1)
	for _, count := range []int{params.N(), 8} {
		want, got := warm.PrepareSparse(ct, count), cold.PrepareSparse(ct, count)
		if got.Count != want.Count || got.Scale != want.Scale || len(got.LWEs) != len(want.LWEs) {
			t.Fatalf("count=%d: cold prepared %d LWEs of count %d, warm %d of %d", count, len(got.LWEs), got.Count, len(want.LWEs), want.Count)
		}
		for i, lwe := range got.LWEs {
			w := want.LWEs[i]
			if lwe.Q != w.Q || lwe.B != w.B || !slices.Equal(lwe.A, w.A) {
				t.Fatalf("count=%d: LWE %d differs between cold and warm", count, i)
			}
		}
		if !slices.Equal(got.rC0, want.rC0) || !slices.Equal(got.rC1, want.rC1) {
			t.Fatalf("count=%d: ct′ differs between cold and warm", count)
		}
	}
}

// TestKeyBytesByKind measures a warm bootstrapper at boot_paper_ring's shape
// (N = 2^13, seven 36-bit Q limbs, four P limbs, dnum 2, n_t = 16) against
// the key sizes the layouts imply: 16 binary RGSW rows of 2·dnum·2 polys over
// the 7 Q limbs, 8192 · 5 digits · (16 + 1) words of LWE key switch, and 13
// Galois keys of 2·dnum polys over the 11 Q·P limbs. The same shape built
// ColdStart holds nothing.
func TestKeyBytesByKind(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-ring key generation takes ≈ 0.3 s and ≈ 130 MB")
	}
	const logN = 13
	q := ring.GenerateNTTPrimes(36, logN, 7)
	p := ring.GenerateNTTPrimesUp(37, logN, 4)
	params := ckks.MustParameters(logN, q, p, ring.DefaultSigma, 2, float64(uint64(1)<<35), 8)
	cfg := DefaultConfig()
	cfg.NT, cfg.Workers, cfg.ColdStart = 16, 2, true
	cold, err := NewBootstrapper(params, nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if kb := cold.KeyBytes(); kb != (KeyBytes{}) {
		t.Fatalf("cold bootstrapper reports %v", kb)
	}
	kg := rlwe.NewKeyGenerator(params.Parameters, 1)
	cfg.ColdStart = false
	warm, err := NewBootstrapper(params, kg, kg.GenSecretKey(rlwe.SecretTernary), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := KeyBytes{BlindRotate: 92_274_688, LWEKeySwitch: 8192 * 5 * 17 * 8, Packing: 13 * 2_883_584}
	if got := warm.KeyBytes(); got != want {
		t.Fatalf("warm bootstrapper reports %v, want %v", got, want)
	}
}
