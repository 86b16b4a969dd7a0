package tfhe

import (
	"errors"
	"fmt"
	"math/big"
	"sync"
	"testing"
	"time"

	"heap/internal/obs"
	"heap/internal/ring"
	"heap/internal/rlwe"
)

// batchFixture returns the blind-rotate material plus a fresh LWE generator
// drawing exact-phase ciphertexts with pseudorandom masks.
func batchFixture(t *testing.T, secret rlwe.SecretDist) (*rlwe.Parameters, *Evaluator, *LookupTable, *BlindRotateKey, func() *rlwe.LWECiphertext) {
	t.Helper()
	p := testParams(t)
	kg := rlwe.NewKeyGenerator(p, 40)
	rsk := kg.GenSecretKey(rlwe.SecretTernary)
	lweSK := kg.GenLWESecretKey(12, secret)
	brk := GenBlindRotateKey(kg, lweSK, rsk)
	ev := NewEvaluator(p, nil)
	lut := NewLUTFromBig(p, p.MaxLevel(), func(u int) *big.Int {
		return big.NewInt(int64(u) << 24)
	})
	s := ring.NewSampler(97)
	phase := int64(0)
	next := func() *rlwe.LWECiphertext {
		phase++
		return encryptLWEPhase(phase%17-8, uint64(2*p.N()), lweSK.Signed, s)
	}
	return p, ev, lut, brk, next
}

// TestBlindRotateBatchMatchesPerCiphertext is the property test of the
// key-major engine: for every batch size 0…20, 1/2/3/8 workers and both
// secret distributions, the batched accumulators must equal the
// per-ciphertext reference loop's outputs exactly, and the schedule must be
// the worker-filling one: tiles of min(Tile, ⌈n/workers⌉) (recomputed here,
// not read from effectiveTile), so no tile exceeds Tile and
// blind_rotate_tiles is ⌈n/effective tile⌉. Batch size and width between
// them cut every tile size from 1 to Tile. The
// OnTile hook doubles as a barrier — the first min(workers, tiles) tiles wait
// for one another, and a worker parked in the hook cannot claim a second tile
// — so the test deadlocks into its timeout unless that many distinct workers
// each received a tile, on any scheduler and any -cpu. Run under -race this
// also exercises the tile cursor and per-worker arenas.
func TestBlindRotateBatchMatchesPerCiphertext(t *testing.T) {
	const maxCount = 20
	for _, secret := range []rlwe.SecretDist{rlwe.SecretBinary, rlwe.SecretTernary} {
		p, ev, lut, brk, next := batchFixture(t, secret)
		sc := ev.NewScratch()
		lwes := make([]*rlwe.LWECiphertext, maxCount)
		want := make([]*rlwe.Ciphertext, maxCount)
		for j := range lwes {
			lwes[j] = next()
			want[j] = rlwe.NewCiphertext(p, lut.Level)
			ev.rotateReference(want[j], lwes[j], lut, brk, sc)
		}
		for count := 0; count <= maxCount; count++ {
			for _, workers := range []int{1, 2, 3, 8} {
				eff := Tile
				if count > 0 {
					eff = min(Tile, (count+workers-1)/workers)
				}
				wantTiles := (count + eff - 1) / eff
				width := min(workers, wantTiles)
				var (
					mu      sync.Mutex
					arrived int
					seen    = make([]bool, count)
					gate    = make(chan struct{})
				)
				met := obs.NewMetrics()
				ev.KS.SetRecorder(met)
				accs := make([]*rlwe.Ciphertext, count)
				err := ev.BlindRotateBatchInto(accs, lwes[:count], lut, brk, BatchOptions{
					Workers: workers,
					OnTile: func(lo, hi int) error {
						mu.Lock()
						if lo%eff != 0 || hi != min(lo+eff, count) {
							mu.Unlock()
							return fmt.Errorf("tile [%d,%d) is not a tile of size %d", lo, hi, eff)
						}
						for j := lo; j < hi; j++ {
							seen[j] = true
						}
						if arrived++; arrived == width {
							close(gate)
						}
						mu.Unlock()
						select {
						case <-gate:
							return nil
						case <-time.After(10 * time.Second):
							return fmt.Errorf("fewer than %d workers received a tile", width)
						}
					},
				})
				ev.KS.SetRecorder(nil)
				if err != nil {
					t.Fatalf("count=%d workers=%d: %v", count, workers, err)
				}
				if got := met.Counter(obs.CounterBlindRotateTile); got != uint64(wantTiles) {
					t.Fatalf("count=%d workers=%d: %d tiles, want ⌈%d/%d⌉ = %d", count, workers, got, count, eff, wantTiles)
				}
				for j := range accs {
					if !seen[j] || accs[j] == nil {
						t.Fatalf("count=%d workers=%d: accumulator %d not filled or not reported", count, workers, j)
					}
					if !p.QBasis.Equal(want[j].C0, accs[j].C0) || !p.QBasis.Equal(want[j].C1, accs[j].C1) ||
						accs[j].IsNTT != want[j].IsNTT {
						t.Fatalf("count=%d workers=%d: accumulator %d differs from per-ciphertext path",
							count, workers, j)
					}
				}
			}
		}
	}
}

// TestBlindRotateTileZeroAllocs locks the PR 2 discipline on the batched
// inner loop, for both key types: with a warm arena and reused accumulators,
// a key-major tile performs zero heap allocations.
func TestBlindRotateTileZeroAllocs(t *testing.T) {
	for _, secret := range []rlwe.SecretDist{rlwe.SecretBinary, rlwe.SecretTernary} {
		t.Run(secretName(secret), func(t *testing.T) {
			p, ev, lut, brk, next := batchFixture(t, secret)
			if brk.Binary != (secret == rlwe.SecretBinary) {
				t.Fatalf("fixture key came out binary=%v", brk.Binary)
			}
			const tile = 4
			lwes := make([]*rlwe.LWECiphertext, tile)
			accs := make([]*rlwe.Ciphertext, tile)
			for j := range lwes {
				lwes[j] = next()
				accs[j] = rlwe.NewCiphertext(p, lut.Level)
			}
			sc := ev.NewScratch()
			ev.BlindRotateTileInto(accs, lwes, lut, brk, sc) // warm the arena

			if avg := testing.AllocsPerRun(5, func() {
				ev.BlindRotateTileInto(accs, lwes, lut, brk, sc)
			}); avg != 0 {
				t.Fatalf("BlindRotateTileInto allocates %.1f objects/op, want 0", avg)
			}
		})
	}
}

// TestBlindRotateBatchKeyReuse locks the counter semantics behind the
// engine's whole point: with dense masks, tiles of one stream the key once
// per rotation while tiles of four (16 rotations over four workers) stream
// it once per tile, so brk_bytes_streamed must drop by exactly the tile size.
func TestBlindRotateBatchKeyReuse(t *testing.T) {
	p, ev, lut, brk, _ := batchFixture(t, rlwe.SecretBinary)
	const count, workers = 16, 4
	const tile = count / workers
	twoN := uint64(2 * p.N())
	s := ring.NewSampler(11)
	lwes := make([]*rlwe.LWECiphertext, count)
	for j := range lwes {
		lwe := &rlwe.LWECiphertext{A: make([]uint64, brk.NumKeys()), Q: twoN}
		for i := range lwe.A {
			lwe.A[i] = 1 + s.UniformMod(twoN-1) // dense: every key index used
		}
		lwe.B = s.UniformMod(twoN)
		lwes[j] = lwe
	}

	perCt := obs.NewMetrics()
	ev.KS.SetRecorder(perCt)
	sc := ev.NewScratch()
	for _, lwe := range lwes {
		ev.BlindRotateTileInto([]*rlwe.Ciphertext{rlwe.NewCiphertext(p, lut.Level)}, []*rlwe.LWECiphertext{lwe}, lut, brk, sc)
	}

	batched := obs.NewMetrics()
	ev.KS.SetRecorder(batched)
	err := ev.BlindRotateBatchInto(make([]*rlwe.Ciphertext, count), lwes, lut, brk, BatchOptions{Workers: workers})
	ev.KS.SetRecorder(nil)
	if err != nil {
		t.Fatal(err)
	}

	wantKey := uint64(brk.PerKeyBytes()) * uint64(brk.NumKeys())
	if got := perCt.Counter(obs.CounterBRKBytesStreamed); got != wantKey*count {
		t.Errorf("tiles of one streamed %d key bytes, want %d", got, wantKey*count)
	}
	if got := batched.Counter(obs.CounterBRKBytesStreamed); got != wantKey*count/tile {
		t.Errorf("batched path streamed %d key bytes, want %d", got, wantKey*count/tile)
	}
	if got := batched.Counter(obs.CounterBlindRotateTile); got != count/tile {
		t.Errorf("tiles counter = %d, want %d", got, count/tile)
	}
	if got := batched.Counter(obs.CounterBlindRotate); got != count {
		t.Errorf("blind_rotates = %d, want %d", got, count)
	}
	reuse := float64(perCt.Counter(obs.CounterBRKBytesStreamed)) /
		float64(batched.Counter(obs.CounterBRKBytesStreamed))
	if reuse < tile {
		t.Errorf("key-reuse factor %.2f, want >= %d", reuse, tile)
	}
}

// TestBlindRotateBatchOnTile locks the streaming hook: every batch index is
// reported exactly once in ranges of at most Tile, and an OnTile error stops
// the batch and surfaces.
func TestBlindRotateBatchOnTile(t *testing.T) {
	_, ev, lut, brk, next := batchFixture(t, rlwe.SecretBinary)
	const count = 11
	lwes := make([]*rlwe.LWECiphertext, count)
	for j := range lwes {
		lwes[j] = next()
	}

	var mu sync.Mutex
	seen := make([]bool, count)
	accs := make([]*rlwe.Ciphertext, count)
	err := ev.BlindRotateBatchInto(accs, lwes, lut, brk, BatchOptions{
		Workers: 2,
		OnTile: func(lo, hi int) error {
			mu.Lock()
			defer mu.Unlock()
			if hi-lo > Tile || lo < 0 || hi > count {
				return fmt.Errorf("bad tile range [%d,%d)", lo, hi)
			}
			for j := lo; j < hi; j++ {
				if seen[j] {
					return fmt.Errorf("index %d reported twice", j)
				}
				seen[j] = true
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for j, ok := range seen {
		if !ok {
			t.Fatalf("index %d never reported", j)
		}
	}

	boom := errors.New("sink failed")
	err = ev.BlindRotateBatchInto(make([]*rlwe.Ciphertext, count), lwes, lut, brk, BatchOptions{
		OnTile: func(lo, hi int) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("OnTile error not surfaced: %v", err)
	}
}

// TestBlindRotateBatchRecoversPanics locks the serving-node contract: a
// malformed LWE ciphertext in the batch comes back as an error naming the
// tile, never as a panic.
func TestBlindRotateBatchRecoversPanics(t *testing.T) {
	_, ev, lut, brk, next := batchFixture(t, rlwe.SecretBinary)
	lwes := []*rlwe.LWECiphertext{next(), next(), next()}
	lwes[1] = &rlwe.LWECiphertext{A: make([]uint64, 3), Q: lwes[0].Q} // wrong dimension
	err := ev.BlindRotateBatchInto(make([]*rlwe.Ciphertext, 3), lwes, lut, brk, BatchOptions{Workers: 2})
	if err == nil {
		t.Fatal("malformed LWE in batch did not error")
	}
	if err := ev.BlindRotateBatchInto(make([]*rlwe.Ciphertext, 2), lwes, lut, brk, BatchOptions{}); err == nil {
		t.Fatal("length mismatch did not error")
	}
}

// CMux is CMuxInto with a freshly allocated output and pooled scratch, for
// tests that want a one-line selection.
func (ev *Evaluator) CMux(bit *rlwe.RGSWCiphertext, ct0, ct1 *rlwe.Ciphertext) *rlwe.Ciphertext {
	out := rlwe.NewCiphertext(ev.Params, ct0.Level())
	sc := ev.getScratch()
	ev.CMuxInto(out, bit, ct0, ct1, sc)
	ev.putScratch(sc)
	return out
}

// TestCMuxIntoMatchesCMux locks the scratch-arena CMux against a reference
// transcription of the retired allocating implementation.
func TestCMuxIntoMatchesCMux(t *testing.T) {
	p := testParams(t)
	kg := rlwe.NewKeyGenerator(p, 34)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	enc := rlwe.NewEncryptor(p, sk, 35)
	ev := NewEvaluator(p, nil)

	level := p.MaxLevel()
	b := p.QBasis.AtLevel(level)
	mk := func(v int64) *rlwe.Ciphertext {
		msg := make([]int64, p.N())
		msg[0] = v
		pt := b.NewPoly()
		b.SetSigned(msg, pt)
		b.NTT(pt)
		return enc.EncryptPolyAtLevel(pt, level, 1)
	}
	ct0, ct1 := mk(1<<26), mk(-(1 << 25))
	ref := func(bit *rlwe.RGSWCiphertext, ct0, ct1 *rlwe.Ciphertext) *rlwe.Ciphertext {
		diff := ct1.CopyNew()
		b.Sub(diff.C0, ct0.C0, diff.C0)
		b.Sub(diff.C1, ct0.C1, diff.C1)
		d := rlwe.NewCiphertext(p, level)
		ev.KS.ExternalProductInto(d, diff, bit, ev.KS.NewScratch())
		out := ct0.CopyNew()
		if !out.IsNTT {
			b.NTT(out.C0)
			b.NTT(out.C1)
			out.IsNTT = true
		}
		b.Add(out.C0, d.C0, out.C0)
		b.Add(out.C1, d.C1, out.C1)
		return out
	}
	for bit := int64(0); bit <= 1; bit++ {
		sel := kg.GenRGSWConstant(bit, sk)
		want := ref(sel, ct0, ct1)
		got := ev.CMux(sel, ct0, ct1)
		if !p.QBasis.Equal(want.C0, got.C0) || !p.QBasis.Equal(want.C1, got.C1) || got.IsNTT != want.IsNTT {
			t.Fatalf("bit=%d: CMuxInto differs from reference", bit)
		}
	}
}

// TestCMuxIntoZeroAllocs locks the selection path's allocation freedom with
// a warm arena, like the other hot-path locks.
func TestCMuxIntoZeroAllocs(t *testing.T) {
	p := testParams(t)
	kg := rlwe.NewKeyGenerator(p, 34)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	enc := rlwe.NewEncryptor(p, sk, 35)
	ev := NewEvaluator(p, nil)

	level := p.MaxLevel()
	b := p.QBasis.AtLevel(level)
	pt := b.NewPoly()
	b.NTT(pt)
	ct0 := enc.EncryptPolyAtLevel(pt, level, 1)
	ct1 := enc.EncryptPolyAtLevel(pt, level, 1)
	sel := kg.GenRGSWConstant(1, sk)
	out := rlwe.NewCiphertext(p, level)
	sc := ev.NewScratch()
	ev.CMuxInto(out, sel, ct0, ct1, sc) // warm the arena

	if avg := testing.AllocsPerRun(5, func() {
		ev.CMuxInto(out, sel, ct0, ct1, sc)
	}); avg != 0 {
		t.Fatalf("CMuxInto allocates %.1f objects/op, want 0", avg)
	}
}
