package ckks_test

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"
	"testing"

	"heap"
	"heap/internal/ckks"
	"heap/internal/core"
	"heap/internal/rlwe"
)

// coldContext is a test-ring context whose bootstrapper is ColdStart, so
// that building one costs no blind-rotate key.
func coldContext(t *testing.T) (*heap.Context, heap.ContextConfig) {
	t.Helper()
	cfg := heap.TestContextConfig()
	cfg.Bootstrap.ColdStart = true
	ctx, err := heap.NewContext(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ctx, cfg
}

// keyCRCs forces every promised key of ks in the order of tags and returns
// each key's CRC by tag.
func keyCRCs(t *testing.T, ks *ckks.EvaluationKeySet, tags []uint64) map[uint64]uint32 {
	t.Helper()
	crcs := map[uint64]uint32{}
	for _, tag := range tags {
		b, err := ks.Force(tag).AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		crcs[tag] = crc32.ChecksumIEEE(b)
	}
	return crcs
}

// TestEvaluationKeysAreOrderFree: a context's keys are seeded one by one, so
// forcing them in two different orders and generating them eagerly from the
// same base seed give the same bytes for every key.
func TestEvaluationKeysAreOrderFree(t *testing.T) {
	a, cfg := coldContext(t)
	b, _ := coldContext(t)
	tags := a.Eval.Keys.Tags()
	// ±2^k for k < 6, where +32 and −32 are one rotation of 64 slots; the
	// conjugation and relinearization keys.
	if want := 2*6 - 1 + 2; len(tags) != want {
		t.Fatalf("%d promised keys, want %d", len(tags), want)
	}
	forward := keyCRCs(t, a.Eval.Keys, tags)
	reversed := slices.Clone(tags)
	slices.Reverse(reversed)
	backward := keyCRCs(t, b.Eval.Keys, reversed)

	// NewContext's draws from its key generator, then the eager set.
	kg := rlwe.NewKeyGenerator(a.Params.Parameters, cfg.Seed)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	if _, err := core.NewBootstrapper(a.Params, kg, sk, cfg.Bootstrap); err != nil {
		t.Fatal(err)
	}
	var rotations []int
	for r := 1; r < cfg.Slots; r <<= 1 {
		rotations = append(rotations, r, -r)
	}
	eager := ckks.GenEvaluationKeySet(a.Params, kg, sk, rotations, true)
	if eager.HoldsSecret() {
		t.Fatal("GenEvaluationKeySet's set still holds the secret key")
	}
	if eager.Made() != len(tags) || !slices.Equal(eager.Tags(), tags) {
		t.Fatalf("eager set made %d keys %v, want %d %v", eager.Made(), eager.Tags(), len(tags), tags)
	}
	made := keyCRCs(t, eager, tags)

	seen := map[uint32]bool{}
	for _, tag := range tags {
		if forward[tag] != backward[tag] || forward[tag] != made[tag] {
			t.Errorf("key %d: CRC %#x forward, %#x backward, %#x eager", tag, forward[tag], backward[tag], made[tag])
		}
		if seen[forward[tag]] {
			t.Errorf("key %d repeats another key's CRC %#x", tag, forward[tag])
		}
		seen[forward[tag]] = true
	}
	if n := a.Eval.Keys.Made(); n != len(tags) {
		t.Errorf("forcing every key made %d, want %d", n, len(tags))
	}
}

// TestContextMakesKeysOnFirstUse: a fresh context holds no evaluation key,
// each operation makes the one key it needs, and a rotation the set does not
// promise panics as it did when every key was made up front.
func TestContextMakesKeysOnFirstUse(t *testing.T) {
	ctx, _ := coldContext(t)
	keys := ctx.Eval.Keys
	if keys.Made() != 0 {
		t.Fatalf("a fresh context made %d keys", keys.Made())
	}
	ct := ctx.Encrypt(make([]complex128, ctx.Params.Slots))
	ctx.Eval.Add(ct, ct)
	if keys.Made() != 0 {
		t.Fatalf("Add made %d keys", keys.Made())
	}
	ctx.Eval.Rotate(ct, 1)
	ctx.Eval.Rotate(ct, 1)
	if keys.Made() != 1 {
		t.Fatalf("Rotate by 1 twice made %d keys, want 1", keys.Made())
	}
	ctx.Eval.MulRelinRescale(ct, ct)
	if keys.Made() != 2 {
		t.Fatalf("then MulRelinRescale: %d keys, want 2", keys.Made())
	}

	g := ctx.Params.QBasis.Rings[0].GaloisElementForRotation(3)
	want := fmt.Sprintf("ckks: missing rotation key for k=3 (galois %d)", g)
	func() {
		defer func() {
			if got := recover(); got != want {
				t.Errorf("Rotate by 3 panicked with %v, want %q", got, want)
			}
		}()
		ctx.Eval.Rotate(ct, 3)
	}()
	if keys.Made() != 2 {
		t.Fatalf("a refused rotation made a key: %d", keys.Made())
	}
}

// TestEvaluationKeysFirstUseIsConcurrent: eight goroutines that first use
// the same keys of one fresh context at once get bit-identical results, and
// each key is generated exactly once.
func TestEvaluationKeysFirstUseIsConcurrent(t *testing.T) {
	ctx, _ := coldContext(t)
	v := make([]complex128, ctx.Params.Slots)
	for i := range v {
		v[i] = complex(float64(i%5)/10, 0)
	}
	ct := ctx.Encrypt(v)
	const n = 8
	outs := make([][]byte, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			var buf bytes.Buffer
			for _, out := range []*rlwe.Ciphertext{ctx.Eval.Rotate(ct, 1), ctx.Eval.MulRelinRescale(ct, ct)} {
				if _, err := out.WriteTo(&buf); err != nil {
					t.Error(err)
				}
			}
			outs[i] = buf.Bytes()
		}()
	}
	close(start)
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(outs[i], outs[0]) {
			t.Fatalf("goroutine %d's results differ from goroutine 0's", i)
		}
	}
	if made := ctx.Eval.Keys.Made(); made != 2 {
		t.Fatalf("%d key generations for 2 keys", made)
	}
}
