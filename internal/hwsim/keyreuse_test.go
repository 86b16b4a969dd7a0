package hwsim

import (
	"math/big"
	"testing"

	"heap/internal/obs"
	"heap/internal/ring"
	"heap/internal/rlwe"
	"heap/internal/tfhe"
)

// TestKeyReuseMatchesSoftwareCounters cross-checks the model's URAM
// key-reuse assumption against the real engine: BlindRotateBatched assumes
// each BRK slab is fetched once per batch tile rather than once per
// ciphertext, and the software engine's brk_bytes_streamed counters must
// reproduce exactly the KeyTraffic ratio the model predicts. Dense masks
// (every key index used by every ciphertext) make the comparison exact; the
// batch size is deliberately a non-multiple of every tile it runs at, so the
// partial-tile rounding in both accountings is exercised too.
func TestKeyReuseMatchesSoftwareCounters(t *testing.T) {
	q := ring.GenerateNTTPrimes(40, 6, 2)
	up := ring.GenerateNTTPrimesUp(40, 6, 2)
	params := rlwe.MustParameters(6, q, up, ring.DefaultSigma, 2)
	kg := rlwe.NewKeyGenerator(params, 40)
	rsk := kg.GenSecretKey(rlwe.SecretTernary)
	lweSK := kg.GenLWESecretKey(12, rlwe.SecretBinary)
	brk := tfhe.GenBlindRotateKey(kg, lweSK, rsk)
	ev := tfhe.NewEvaluator(params, nil)
	lut := tfhe.NewLUTFromBig(params, params.MaxLevel(), func(u int) *big.Int {
		return big.NewInt(int64(u))
	})

	const batch = 10
	twoN := uint64(2 * params.N())
	s := ring.NewSampler(5)
	lwes := make([]*rlwe.LWECiphertext, batch)
	for j := range lwes {
		lwe := &rlwe.LWECiphertext{A: make([]uint64, brk.NumKeys()), Q: twoN}
		for i := range lwe.A {
			lwe.A[i] = 1 + s.UniformMod(twoN-1) // dense: every key index used
		}
		lwe.B = s.UniformMod(twoN)
		lwes[j] = lwe
	}

	// The per-ciphertext baseline: every rotation its own tile of one.
	perCt := obs.NewMetrics()
	ev.KS.SetRecorder(perCt)
	sc := ev.NewScratch()
	for _, lwe := range lwes {
		ev.BlindRotateTileInto([]*rlwe.Ciphertext{rlwe.NewCiphertext(params, lut.Level)}, []*rlwe.LWECiphertext{lwe}, lut, brk, sc)
	}
	swPerCt := perCt.Counter(obs.CounterBRKBytesStreamed)
	perCtModel, _ := PaperParams().KeyTraffic(batch, tfhe.Tile)
	if perCtModel != int64(batch)*PaperParams().BRKTotalBytes() {
		t.Errorf("model per-ct traffic %d, want batch×BRKTotalBytes", perCtModel)
	}

	// One worker runs the full tile (8, 2). More workers cut the batch to
	// fill themselves: ⌈10/3⌉ = 4 per tile on three (4, 4, 2), ⌈10/4⌉ = 3 on
	// four (3, 3, 3, 1). The model is fed the effective tile and must still
	// agree with the counters.
	for _, row := range []struct{ workers, effTile, tiles int }{
		{workers: 1, effTile: tfhe.Tile, tiles: 2},
		{workers: 3, effTile: 4, tiles: 3},
		{workers: 4, effTile: 3, tiles: 4},
	} {
		batched := obs.NewMetrics()
		ev.KS.SetRecorder(batched)
		err := ev.BlindRotateBatchInto(make([]*rlwe.Ciphertext, batch), lwes, lut, brk, tfhe.BatchOptions{Workers: row.workers})
		ev.KS.SetRecorder(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := batched.Counter(obs.CounterBlindRotateTile); got != uint64(row.tiles) {
			t.Errorf("workers=%d: engine ran %d tiles, want %d", row.workers, got, row.tiles)
		}
		swBatched := batched.Counter(obs.CounterBRKBytesStreamed)
		if swPerCt == 0 || swBatched == 0 {
			t.Fatal("brk_bytes_streamed counters did not move")
		}
		swReuse := float64(swPerCt) / float64(swBatched)

		// The real quotient is batch/⌈batch/tile⌉ in both accountings, so the
		// correctly-rounded float64 divisions agree bit-exactly even though
		// the byte magnitudes differ (test ring vs paper ring).
		modelReuse := PaperParams().KeyReuse(batch, row.effTile)
		if swReuse != modelReuse {
			t.Errorf("workers=%d: software key-reuse %.6f != model key-reuse %.6f", row.workers, swReuse, modelReuse)
		}
		if swReuse < 2 {
			t.Errorf("workers=%d: key-reuse %.2f at tile %d, want >= 2 (the batching must actually help)", row.workers, swReuse, row.effTile)
		}
		_, batchedModel := PaperParams().KeyTraffic(batch, row.effTile)
		if batchedModel != int64(row.tiles)*PaperParams().BRKTotalBytes() {
			t.Errorf("workers=%d: model batched traffic %d, want %d tiles × BRKTotalBytes", row.workers, batchedModel, row.tiles)
		}
	}
}
