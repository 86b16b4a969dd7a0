package tfhe

import (
	"fmt"
	"sync"
	"sync/atomic"

	"heap/internal/obs"
	"heap/internal/rlwe"
)

// This file is the key-major blind-rotate engine; every rotation runs in it.
// A ciphertext-major loop would stream the entire blind-rotate key (hundreds
// of MB at paper parameters) through cache once per LWE ciphertext. HEAP's
// premise (§V) is the opposite schedule: the n_br extracted LWE ciphertexts
// are rotated against ONE shared key, so the FPGA keeps each BRK slab
// resident in URAM and reuses it across shards.
//
// BlindRotateTileInto realizes that schedule in software: the outer loop
// walks the BRK index i, the inner loop advances a tile of accumulators, so
// brk.Plus[i]/brk.Minus[i] and their decomposition constants are pulled
// through cache once per tile instead of once per ciphertext. Each
// accumulator still sees exactly the per-ciphertext sequence of iteration
// steps (the rotations of different accumulators are independent), so a
// tile of any size emits the words a tile of one does — BlindRotate is that
// tile of one, and the property tests in batch_test.go lock the equality
// against a per-ciphertext reference loop for either key type.
//
// BlindRotateBatchInto fans tiles out across a worker pool, each worker
// owning one Scratch arena (the zero-alloc discipline: nothing but the
// retained accumulators is allocated in steady state). Key reuse is bought
// on top of that parallelism, never instead of it: a batch too small to give
// every worker a full tile is cut into smaller ones (effectiveTile).

// Tile is the most accumulators that advance together through the key-major
// schedule. At paper parameters one RGSW key pair is a few MB — far larger than L2 — so even a
// small tile converts the key stream from once-per-ciphertext to
// once-per-tile; 8 keeps the tile's accumulators and the scratch arena
// cache-resident while already capturing an 8× key-traffic reduction.
const Tile = 8

// effectiveTile is the tile a batch of n rotations actually runs at:
// min(Tile, ⌈n/workers⌉). The rotations are independent, so parallelism comes
// first — Tile is only the upper bound, reached once every worker has a full
// tile to itself; below that the batch is cut finer so no worker idles while
// another walks the key for several accumulators.
func effectiveTile(n, workers int) int { return min(Tile, (n+workers-1)/workers) }

// BlindRotateTileInto blind-rotates one tile of LWE ciphertexts into the
// caller-owned accumulators with the key-index-major schedule described
// above. It is the single-threaded building block of BlindRotateBatchInto;
// callers that manage their own worker fan-out (the cluster's runLocal) use
// it directly, and a tile of one is the per-ciphertext rotation. len(accs)
// must equal len(lwes); malformed inputs (wrong LWE modulus or dimension,
// wrong accumulator level) panic. Allocation-free in steady state.
func (ev *Evaluator) BlindRotateTileInto(accs []*rlwe.Ciphertext, lwes []*rlwe.LWECiphertext, lut *LookupTable, brk *BlindRotateKey, sc *Scratch) {
	T := len(accs)
	if T == 0 {
		return
	}
	if len(lwes) != T {
		panic("tfhe: tile accumulator/LWE count mismatch")
	}
	n := ev.Params.N()
	twoN := uint64(2 * n)
	nk := brk.NumKeys()
	level := lut.Level
	sc.ensure(ev.Params, level)
	if cap(sc.aT) < nk*T {
		sc.aT = make([]uint64, nk*T)
	}
	aT := sc.aT[:nk*T]
	b := ev.Params.QBasis.AtLevel(level)

	// Per-ciphertext setup: ACC_j ← (f·X^{b_j}, 0), trivial RLWE in
	// coefficient representation, plus the key-major mask transpose (reduced
	// mod 2N once, here).
	for j, lwe := range lwes {
		if lwe.Q != twoN {
			panic("tfhe: BlindRotate requires an LWE ciphertext at modulus 2N")
		}
		if len(lwe.A) != nk {
			panic("tfhe: LWE dimension does not match blind-rotate key")
		}
		acc := accs[j]
		if acc.Level() != level {
			panic("tfhe: accumulator level does not match lookup table")
		}
		acc.IsNTT = false
		acc.Scale = 1
		for i := 0; i < level; i++ {
			b.Rings[i].MulByMonomialInto(lut.Poly.Limbs[i], int(lwe.B%twoN), acc.C0.Limbs[i])
		}
		acc.C1.Zero()
		for i, ai := range lwe.A {
			aT[i*T+j] = ai % twoN
		}
	}

	// Key-major sweep: brk.Plus[i]/brk.Minus[i] stay hot across the whole
	// tile. A key index no ciphertext in the tile uses (all-zero row) is
	// never touched and never counted.
	keyBytes := uint64(brk.PerKeyBytes())
	var streamed uint64
	for i := 0; i < nk; i++ {
		row := aT[i*T : i*T+T]
		touched := false
		for j, k := range row {
			if k == 0 {
				continue
			}
			touched = true
			ev.step(accs[j], int(k), brk, i, level, sc)
		}
		if touched {
			streamed += keyBytes
		}
	}
	rec := ev.KS.Recorder()
	rec.Add(obs.CounterBRKBytesStreamed, streamed)
	rec.Add(obs.CounterBlindRotateTile, 1)
	rec.Add(obs.CounterBlindRotate, uint64(T))
}

// BatchOptions tunes BlindRotateBatchInto.
type BatchOptions struct {
	// Workers is the fan-out width; ≤ 1 runs every tile on the calling
	// goroutine (the allocation-free path the AllocsPerRun lock covers).
	// Worker w records its per-tile BlindRotate spans on shard lane w. A
	// batch smaller than Tile·Workers runs at tiles of ⌈n/Workers⌉
	// (effectiveTile).
	Workers int
	// NewAcc supplies an accumulator for each nil entry of accs; nil
	// defaults to a fresh ciphertext at the lookup-table level.
	// core.Bootstrapper injects its recycling pool here. Must be safe for
	// concurrent use when Workers > 1.
	NewAcc func() *rlwe.Ciphertext
	// OnTile, when non-nil, is called from the worker goroutine after the
	// tile covering batch indices [lo, hi) completes — the hook the serving
	// layer (heapd and every cluster secondary) streams finished accumulators
	// back through, preserving the rotate/network overlap. A non-nil error stops the batch: no new tiles
	// start, in-flight tiles finish, and the error is returned. Must be safe
	// for concurrent use when Workers > 1.
	OnTile func(lo, hi int) error
}

// BlindRotateBatchInto blind-rotates lwes[j] into accs[j] for every j,
// fanning key-major tiles (see BlindRotateTileInto) across a worker pool.
// Nil entries of accs are filled via opts.NewAcc; non-nil entries must be at
// the lookup-table level. Each worker owns a pooled Scratch, so steady
// state allocates only the accumulators the caller did not supply. Tiles are
// claimed from an atomic cursor, and each completed tile is reported through
// opts.OnTile. Panics from malformed inputs (wrong LWE modulus/dimension,
// wrong accumulator level) are recovered and returned as errors naming the
// tile, so one bad shard cannot take down a serving node.
func (ev *Evaluator) BlindRotateBatchInto(accs []*rlwe.Ciphertext, lwes []*rlwe.LWECiphertext, lut *LookupTable, brk *BlindRotateKey, opts BatchOptions) error {
	if len(accs) != len(lwes) {
		return fmt.Errorf("tfhe: %d accumulators for %d LWE ciphertexts", len(accs), len(lwes))
	}
	n := len(lwes)
	if n == 0 {
		return nil
	}
	workers := max(opts.Workers, 1)
	tile := effectiveTile(n, workers)
	numTiles := (n + tile - 1) / tile
	if workers > numTiles {
		workers = numTiles
	}
	newAcc := opts.NewAcc
	if newAcc == nil {
		newAcc = func() *rlwe.Ciphertext { return rlwe.NewCiphertext(ev.Params, lut.Level) }
	}
	rec := ev.KS.Recorder()

	var (
		cursor   atomic.Int64
		stop     atomic.Bool
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		stop.Store(true)
	}
	work := func(lane int, sc *Scratch) {
		for !stop.Load() {
			t := int(cursor.Add(1)) - 1
			if t >= numTiles {
				return
			}
			lo := t * tile
			hi := lo + tile
			if hi > n {
				hi = n
			}
			for j := lo; j < hi; j++ {
				if accs[j] == nil {
					accs[j] = newAcc()
				}
			}
			err := func() (err error) {
				tok := rec.Begin(obs.StageBlindRotate, lane)
				defer rec.End(obs.StageBlindRotate, lane, tok)
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("tfhe: blind rotation of batch indices [%d,%d): %v", lo, hi, r)
					}
				}()
				ev.BlindRotateTileInto(accs[lo:hi], lwes[lo:hi], lut, brk, sc)
				return nil
			}()
			if err == nil && opts.OnTile != nil {
				err = opts.OnTile(lo, hi)
			}
			if err != nil {
				fail(err)
				return
			}
		}
	}

	if workers == 1 {
		sc := ev.getScratch()
		work(0, sc)
		ev.putScratch(sc)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sc := ev.getScratch()
				work(w, sc)
				ev.putScratch(sc)
			}(w)
		}
		wg.Wait()
	}
	errMu.Lock()
	defer errMu.Unlock()
	return firstErr
}
