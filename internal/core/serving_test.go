package core

import (
	"testing"

	"heap/internal/rlwe"
	"heap/internal/tfhe"
)

func assertAccEqual(t *testing.T, idx int, got, want *rlwe.Ciphertext) {
	t.Helper()
	for i := range want.C0.Limbs {
		for j := range want.C0.Limbs[i] {
			if got.C0.Limbs[i][j] != want.C0.Limbs[i][j] || got.C1.Limbs[i][j] != want.C1.Limbs[i][j] {
				t.Fatalf("accumulator %d differs at limb %d coeff %d", idx, i, j)
			}
		}
	}
}

// TestBlindRotateBatchWithKeyMatchesLocal locks the multi-tenant serving
// contract at the core layer: a ColdStart bootstrapper built from nothing
// but the public parameter set computes, under a transplanted tenant
// blind-rotate key, accumulators bit-identical to the tenant rotating
// locally. The lookup table depends only on the parameters and a blind
// rotation is deterministic in (lwe, lut, brk), so the server never needs
// the tenant's secrets.
func TestBlindRotateBatchWithKeyMatchesLocal(t *testing.T) {
	params, cl, _, tenant := testSetup(t, 1)

	v := testVector(params.Slots)
	prep := tenant.PrepareSparse(cl.EncryptAtLevel(v, 1), 8)

	// The tenant's local reference rotations, via both single-shot APIs.
	want := make([]*rlwe.Ciphertext, len(prep.LWEs))
	sc := tenant.NewRotateScratch()
	for i, lwe := range prep.LWEs {
		if i%2 == 0 {
			want[i] = tenant.BlindRotateOne(lwe)
		} else {
			want[i] = tenant.NewAccumulator()
			tenant.BlindRotateOneInto(want[i], lwe, sc)
		}
	}

	// A key-cold server sharing only the public parameter set.
	cfg := DefaultConfig()
	cfg.NT = tenant.Cfg.NT
	cfg.Workers = 2 // eight rotations over two workers: two tiles of four
	cfg.ColdStart = true
	srv, err := NewBootstrapper(params, nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if srv.BlindRotateKey() != nil {
		t.Fatal("ColdStart server must boot key-cold")
	}

	brk := tenant.BlindRotateKey()
	if err := srv.BlindRotateBatchWithKey(nil, nil, nil, tfhe.BatchOptions{}); err == nil {
		t.Fatal("nil key must be rejected")
	}
	if err := srv.BlindRotateBatchWithKey(nil, nil, &tfhe.BlindRotateKey{}, tfhe.BatchOptions{}); err == nil {
		t.Fatal("empty key must be rejected")
	}

	accs := make([]*rlwe.Ciphertext, len(prep.LWEs))
	if err := srv.BlindRotateBatchWithKey(accs, prep.LWEs, brk, tfhe.BatchOptions{Workers: srv.Cfg.Workers}); err != nil {
		t.Fatal(err)
	}
	for i := range accs {
		assertAccEqual(t, i, accs[i], want[i])
	}

	// The tile building block against the same reference.
	tile := make([]*rlwe.Ciphertext, 2)
	for i := range tile {
		tile[i] = tenant.NewAccumulator()
	}
	tenant.BlindRotateTile(tile, prep.LWEs[:2], tenant.NewRotateScratch())
	for i := range tile {
		assertAccEqual(t, i, tile[i], want[i])
	}
}

// TestBlindRotateBatchWithKeyChecksKind: the key kind a handed key must have
// comes from the receiver's configuration (n_t mode: binary), and its rows
// must match that kind. A partially warm prefix is refused: only a whole key
// rotates.
func TestBlindRotateBatchWithKeyChecksKind(t *testing.T) {
	params, _, _, tenant := testSetup(t, 1)
	if !tenant.BinaryKey() {
		t.Fatal("an n_t-mode bootstrapper must want a binary key")
	}
	brk := tenant.BlindRotateKey()
	n := brk.NumKeys()
	minus := make([]*rlwe.RGSWCiphertext, n)
	for i := range minus {
		minus[i] = brk.Plus[i]
	}
	partial := &tfhe.BlindRotateKey{Plus: make([]*rlwe.RGSWCiphertext, n), Binary: true}
	copy(partial.Plus[:n/2], brk.Plus)

	cfg := tenant.Cfg
	cfg.ColdStart = true
	srv, err := NewBootstrapper(params, nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		key  *tfhe.BlindRotateKey
		ok   bool
	}{
		{"binary", brk, true},
		{"partially-warm", partial, false},
		{"labelled-ternary", &tfhe.BlindRotateKey{Plus: brk.Plus, Minus: minus}, false},
		{"binary-with-minus-rows", &tfhe.BlindRotateKey{Plus: brk.Plus, Minus: minus, Binary: true}, false},
	} {
		if err := srv.BlindRotateBatchWithKey(nil, nil, c.key, tfhe.BatchOptions{}); c.ok != (err == nil) {
			t.Errorf("%s: BlindRotateBatchWithKey = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestPrepareCoversFullRing pins the dense Prepare wrapper: one LWE per
// coefficient, each carrying the n_t-mode key-switched dimension.
func TestPrepareCoversFullRing(t *testing.T) {
	params, cl, _, bt := testSetup(t, 1)
	prep := bt.Prepare(cl.EncryptAtLevel(testVector(params.Slots), 1))
	if len(prep.LWEs) != params.N() {
		t.Fatalf("Prepare extracted %d LWEs, want N = %d", len(prep.LWEs), params.N())
	}
	if dim := len(prep.LWEs[0].A); dim != bt.Cfg.NT {
		t.Fatalf("prepared LWE dimension %d, want n_t = %d", dim, bt.Cfg.NT)
	}
}
