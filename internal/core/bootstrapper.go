// Package core implements HEAP's primary contribution: CKKS bootstrapping by
// scheme switching (Algorithm 2 of the paper). A level-exhausted CKKS
// ciphertext is floor-divided to the TFHE modulus 2N, its coefficients are
// Extracted into independent LWE ciphertexts, every LWE ciphertext is
// BlindRotated in parallel (no data dependencies — the property the
// multi-FPGA system of §V exploits), the rotated accumulators are repacked
// into one RLWE ciphertext by the primary node, and the wrap-around multiple
// k·q is removed by a single addition instead of a polynomial approximation
// of modular reduction.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"sync"

	"heap/internal/ckks"
	"heap/internal/obs"
	"heap/internal/ring"
	"heap/internal/rlwe"
	"heap/internal/rns"
	"heap/internal/tfhe"
)

// Config tunes the scheme-switching bootstrapper.
type Config struct {
	// NT is the LWE dimension n_t after key switching (paper: 500, §III-C).
	// It bounds the blind-rotation iteration count and, together with the
	// binary LWE secret, keeps the wrap-around value within the negacyclic
	// lookup table's valid range. NT = 0 selects the exact mode: the
	// dimension-reducing key switch is skipped and the blind rotation runs
	// over all N coefficients of the ternary RLWE secret — slower, but the
	// wrap-around values are recovered without any rounding error.
	NT int
	// Workers is the number of parallel compute nodes the BlindRotate fan-out
	// uses (the software analog of the paper's eight FPGAs).
	Workers int
	// Seed drives deterministic key generation.
	Seed uint64
	// ColdStart builds a key-free engine, what a serving node is: no LWE
	// secret, LWE key-switching key, packing keys or blind-rotate key are
	// generated, and NewBootstrapper reads nothing from its key generator or
	// secret (both may be nil). The engine rotates only under keys it is
	// handed (BlindRotateBatchWithKey), which a serving node receives over
	// the cluster's chunked key-streaming channel into its registry, and runs
	// an exact-mode PrepareSparse, which uses no key; every entry point that
	// needs a missing key fails with ErrKeyCold. The handshake carries only
	// the parameter digest and the LWE dimension, both public, so a cold node
	// and a warm one are protocol-compatible.
	ColdStart bool
}

// DefaultConfig mirrors the paper's parameter choices.
func DefaultConfig() Config {
	return Config{NT: 500, Workers: 8, Seed: 0xb007}
}

// ErrKeyCold is the refusal of an entry point that needs key material a
// ColdStart bootstrapper never generated: the LWE key-switching key (an
// n_t-mode Prepare), the packing keys (Finish and the merge collector) or
// the installed blind-rotate key (local blind rotation).
var ErrKeyCold = errors.New("core: key-cold bootstrapper")

// keyCold is ErrKeyCold naming the missing key.
func keyCold(key string) error { return fmt.Errorf("%w: it holds no %s", ErrKeyCold, key) }

// rotateKey returns the installed blind-rotate key, or panics with
// ErrKeyCold on a cold bootstrapper.
func (bt *Bootstrapper) rotateKey() *tfhe.BlindRotateKey {
	if bt.brk == nil {
		panic(keyCold("blind-rotate key"))
	}
	return bt.brk
}

const (
	// lweLogBase is the digit size of the LWE key switch.
	lweLogBase = 7
	// scaleUpBits lifts the mod-2N LWE ciphertexts to modulus 2N·2^t before
	// the dimension-reducing key switch, so the switch noise vanishes when
	// rounding back down.
	scaleUpBits = 20
)

// Bootstrapper holds the key material and evaluators for scheme-switching
// bootstrapping. The last limb of the parameter set's modulus chain is
// reserved as the auxiliary prime p of Algorithm 2: applications run on
// levels 1…L−1 and the bootstrap returns a ciphertext at level L−1.
type Bootstrapper struct {
	Params *ckks.Parameters
	Cfg    Config

	// The key material; all nil on a ColdStart bootstrapper.
	brk      *tfhe.BlindRotateKey
	lweKSK   *rlwe.LWEKeySwitchKey // nil in exact mode too
	packKeys *rlwe.PackingKeys
	repacker *rlwe.Repacker

	tfheEv *tfhe.Evaluator
	lut    *tfhe.LookupTable
	ks     *rlwe.KeySwitcher

	pAux     uint64   // the reserved auxiliary prime (last limb)
	pScalar  int64    // round(p / 2N)
	invNModQ []uint64 // N^{-1} mod each limb, for the sparse ct′ pre-scale

	// rec receives pipeline-stage spans and kernel counters; always non-nil
	// (Nop by default, so the uninstrumented path stays allocation-free).
	rec obs.Recorder

	// accPool recycles accumulators: BlindRotateBatch draws from it, and
	// RecycleAccumulator hands one back (BootstrapSparse once Finish has
	// consumed them, a serving node once one is framed), so back-to-back
	// batches do not leave ~1 MB per blind rotation to the collector.
	accPool sync.Pool
}

// SetRecorder installs the observability recorder for this bootstrapper and
// the shared key switcher beneath it (kernel counters: NTTs, external
// products, key switches, merges). Pass nil to disable. Not safe to call
// concurrently with a running bootstrap.
func (bt *Bootstrapper) SetRecorder(r obs.Recorder) {
	bt.rec = obs.OrNop(r)
	bt.ks.SetRecorder(bt.rec)
}

// Recorder returns the installed recorder (Nop when none was set).
func (bt *Bootstrapper) Recorder() obs.Recorder { return bt.rec }

// AppMaxLevel is the highest level application ciphertexts may use: the top
// limb is the bootstrap's auxiliary prime.
func (bt *Bootstrapper) AppMaxLevel() int { return bt.Params.MaxLevel() - 1 }

// NewBootstrapper generates all bootstrapping key material under sk:
// the blind-rotate keys brk (n_t RGSW ciphertexts for the binary LWE secret,
// N pairs in exact mode), the N→n_t LWE key-switching
// key, and the log N packing automorphism keys. Under cfg.ColdStart it
// generates none of them and kg and sk may be nil.
func NewBootstrapper(params *ckks.Parameters, kg *rlwe.KeyGenerator, sk *rlwe.SecretKey, cfg Config) (*Bootstrapper, error) {
	if params.MaxLevel() < 2 {
		return nil, fmt.Errorf("core: need at least two limbs (one application limb plus the auxiliary prime)")
	}
	if cfg.NT < 0 || cfg.Workers < 1 {
		return nil, fmt.Errorf("core: invalid config %+v", cfg)
	}
	n := params.N()
	twoN := uint64(2 * n)
	if cfg.NT >= n/2 {
		return nil, fmt.Errorf("core: n_t=%d must stay well below N/2 to bound the wrap-around value", cfg.NT)
	}
	// modSwitchExact computes 2N·(x mod q0) and recenters it through int64:
	// 2N·q0 must stay below 2^63 or the floor division silently corrupts
	// every extracted coefficient. Reject such parameter sets up front.
	if params.Q[0] > math.MaxInt64/twoN {
		return nil, fmt.Errorf("core: 2N·q0 = %d·%d overflows int64; pick a smaller q0 or ring degree",
			twoN, params.Q[0])
	}

	bt := &Bootstrapper{Params: params, Cfg: cfg, rec: obs.Nop{}}
	bt.ks = rlwe.NewKeySwitcher(params.Parameters)
	bt.ks.SetWorkers(cfg.Workers)
	bt.tfheEv = tfhe.NewEvaluator(params.Parameters, bt.ks)

	if !cfg.ColdStart {
		bt.genKeys(kg, sk)
	}

	// Lookup table: g(u) = q0 · u · N^{-1} mod Q (the N^{-1} pre-cancels the
	// factor-N scaling of the repack), valid for |u| < N/2.
	level := params.MaxLevel()
	bigQ := params.QBasis.AtLevel(level).Modulus()
	invN := new(big.Int).ModInverse(big.NewInt(int64(n)), bigQ)
	if invN == nil {
		return nil, fmt.Errorf("core: N not invertible modulo Q")
	}
	q0 := new(big.Int).SetUint64(params.Q[0])
	coef := new(big.Int).Mul(q0, invN)
	coef.Mod(coef, bigQ)
	bt.lut = tfhe.NewLUTFromBig(params.Parameters, level, func(u int) *big.Int {
		return new(big.Int).Mul(coef, big.NewInt(int64(u)))
	})

	bt.invNModQ = make([]uint64, level)
	for i := 0; i < level; i++ {
		m := params.QBasis.Rings[i].Mod
		bt.invNModQ[i] = m.InvMod(uint64(n) % m.Q)
	}

	bt.pAux = params.Q[level-1]
	bt.pScalar = int64((bt.pAux + twoN/2) / twoN) // round(p / 2N)
	return bt, nil
}

// genKeys generates the key material of a warm bootstrapper under sk.
func (bt *Bootstrapper) genKeys(kg *rlwe.KeyGenerator, sk *rlwe.SecretKey) {
	if bt.Cfg.NT == 0 {
		// Exact mode: blind-rotate directly under the (ternary) RLWE secret.
		bt.brk = tfhe.GenBlindRotateKey(kg, &rlwe.LWESecretKey{Signed: sk.Signed, Dist: rlwe.SecretTernary}, sk)
	} else {
		lweSK := kg.GenLWESecretKey(bt.Cfg.NT, rlwe.SecretBinary)
		// The LWE key-switching key draws only from its own sampler, so it
		// is generated beside the blind-rotate key, byte for byte the same.
		kskDone := make(chan struct{})
		go func() {
			defer close(kskDone)
			bt.lweKSK = bt.genLWEKeySwitchKey(sk, lweSK)
		}()
		bt.brk = tfhe.GenBlindRotateKey(kg, lweSK, sk)
		<-kskDone
	}
	bt.packKeys = kg.GenPackingKeys(sk)
	bt.repacker = rlwe.NewRepacker(bt.ks, bt.packKeys)
}

// genLWEKeySwitchKey generates the N→n_t key switch from sk to lweSK at the
// scaled-up modulus 2N·2^scaleUpBits, from a sampler of its own seeded by
// Cfg.Seed.
func (bt *Bootstrapper) genLWEKeySwitchKey(sk *rlwe.SecretKey, lweSK *rlwe.LWESecretKey) *rlwe.LWEKeySwitchKey {
	kskMod := uint64(2*bt.Params.N()) << scaleUpBits
	return rlwe.GenLWEKeySwitchKey(sk.Signed, lweSK.Signed, kskMod, lweLogBase, ring.NewSampler(bt.Cfg.Seed), bt.Params.Sigma)
}

// msResult is the exact floor-division of Algorithm 2 steps 1–2:
// 2N·x = q0·alpha + r with r centered, applied componentwise.
type msResult struct {
	alphaC0, alphaC1 []uint64 // ct_ms components, mod 2N
	rC0, rC1         []int64  // ct' components, centered in (−q0/2, q0/2]
}

func (bt *Bootstrapper) modSwitchExact(c0, c1 []uint64) msResult {
	n := bt.Params.N()
	twoN := uint64(2 * n)
	q0 := bt.Params.Q[0]
	out := msResult{
		alphaC0: make([]uint64, n), alphaC1: make([]uint64, n),
		rC0: make([]int64, n), rC1: make([]int64, n),
	}
	split := func(x uint64) (alpha uint64, r int64) {
		y := twoN * (x % q0) // ≤ 2N·q0 < 2^63, validated by NewBootstrapper
		alpha = (y + q0/2) / q0
		r = int64(y) - int64(alpha*q0)
		return alpha % twoN, r
	}
	for j := 0; j < n; j++ {
		out.alphaC0[j], out.rC0[j] = split(c0[j])
		out.alphaC1[j], out.rC1[j] = split(c1[j])
	}
	return out
}

// PreparedBootstrap is the primary node's state between Algorithm 2's steps
// 1–2 and the distributed BlindRotate fan-out: the extracted, key-switched,
// mod-switched LWE ciphertexts ready for distribution, plus the centered
// ct' components needed for the final addition.
type PreparedBootstrap struct {
	LWEs     []*rlwe.LWECiphertext
	rC0, rC1 []int64
	Scale    float64
	// Count is the number of extracted coefficients (the paper's n_br):
	// N for a fully packed ciphertext, 2·slots for sparse packings whose
	// message lives in the X^{N/(2·slots)} subring.
	Count int
}

// Prepare executes steps 1–2 of Algorithm 2 plus Extract / LWE-KeySwitch /
// ModulusSwitch per coefficient, producing the independent LWE ciphertexts
// the primary node distributes (Figure 4).
func (bt *Bootstrapper) Prepare(ct *rlwe.Ciphertext) *PreparedBootstrap {
	return bt.PrepareSparse(ct, bt.Params.N())
}

// PrepareSparse is Prepare restricted to `count` coefficients (the paper's
// n_br parameter, §V): for a sparsely packed ciphertext the message
// polynomial lives in the X^{N/count} subring, so only the count stride
// coefficients need blind rotations — the junk the modulus raise leaves at
// the other positions is annihilated by the repacking trace in Finish. In
// n_t mode it needs the LWE key-switching key and panics with ErrKeyCold
// without it; the exact mode uses no key.
func (bt *Bootstrapper) PrepareSparse(ct *rlwe.Ciphertext, count int) *PreparedBootstrap {
	if bt.Cfg.NT != 0 && bt.lweKSK == nil {
		panic(keyCold("LWE key-switching key"))
	}
	p := bt.Params
	n := p.N()
	if count < 1 || count > n || count&(count-1) != 0 {
		panic("core: n_br must be a power of two in [1, N]")
	}
	if ct.Level() != 1 {
		panic("core: scheme-switching bootstrap input must be at level 1")
	}
	tok := bt.rec.Begin(obs.StageModSwitch, obs.LanePipeline)
	b1 := p.QBasis.AtLevel(1)
	c0 := ct.C0.Limbs[0].Copy()
	c1 := ct.C1.Limbs[0].Copy()
	if ct.IsNTT {
		b1.Rings[0].INTT(c0)
		b1.Rings[0].INTT(c1)
		bt.rec.Add(obs.CounterNTT, 2)
	}
	ms := bt.modSwitchExact(c0, c1)
	bt.rec.End(obs.StageModSwitch, obs.LanePipeline, tok)
	twoN := uint64(2 * n)
	prep := &PreparedBootstrap{rC0: ms.rC0, rC1: ms.rC1, Scale: ct.Scale, Count: count}
	gap := n / count
	prep.LWEs = make([]*rlwe.LWECiphertext, count)
	// The count extractions are independent. In exact mode each is a copy; a
	// key switch walks the N→n_t key once per chunk of ciphertexts
	// (ExtractSwitchBatch), so the chunks are contiguous and whole vector
	// groups of four, one per worker. One span covers the fan-out, so the
	// stage reads as wall time.
	tok = bt.rec.Begin(obs.StageExtract, obs.LanePipeline)
	idx := make([]int, count)
	for i := range idx {
		idx[i] = i * gap
	}
	chunk := (count + bt.Cfg.Workers - 1) / bt.Cfg.Workers
	chunk = (chunk + 3) &^ 3
	var wg sync.WaitGroup
	for lo := 0; lo < count; lo += chunk {
		hi := min(lo+chunk, count)
		wg.Add(1)
		go func(idx []int, out []*rlwe.LWECiphertext) {
			defer wg.Done()
			if bt.Cfg.NT != 0 {
				bt.lweKSK.ExtractSwitchBatch(ms.alphaC0, ms.alphaC1, idx, scaleUpBits, out)
				return
			}
			for l, i := range idx {
				out[l] = rlwe.ExtractLWEFromPolys(ms.alphaC0, ms.alphaC1, twoN, i)
			}
		}(idx[lo:hi], prep.LWEs[lo:hi])
	}
	wg.Wait()
	if bt.Cfg.NT != 0 {
		bt.rec.Add(obs.CounterLWEKeySwitch, uint64(count))
	}
	bt.rec.End(obs.StageExtract, obs.LanePipeline, tok)
	return prep
}

// BlindRotateOne rotates one prepared LWE ciphertext into its accumulator
// RLWE ciphertext (coefficient representation, full level) — the unit of
// work a secondary node performs, run as a key-major tile of one.
func (bt *Bootstrapper) BlindRotateOne(lwe *rlwe.LWECiphertext) *rlwe.Ciphertext {
	return bt.tfheEv.BlindRotate(lwe, bt.lut, bt.rotateKey())
}

// NewRotateScratch allocates a per-worker blind-rotation scratch arena for
// BlindRotateOneInto and BlindRotateTile. A worker loop that holds one runs
// the whole rotate→decompose→NTT→MAC kernel without allocating.
func (bt *Bootstrapper) NewRotateScratch() *tfhe.Scratch {
	return bt.tfheEv.NewScratch()
}

// NewAccumulator allocates an RLWE ciphertext at the accumulator level, for
// use as the out parameter of BlindRotateOneInto.
func (bt *Bootstrapper) NewAccumulator() *rlwe.Ciphertext {
	return rlwe.NewCiphertext(bt.Params.Parameters, bt.lut.Level)
}

// pooledAccumulator is NewAccumulator drawing on the accumulators handed
// back through RecycleAccumulator; a blind rotation overwrites every limb, so
// a recycled one needs no clearing.
func (bt *Bootstrapper) pooledAccumulator() *rlwe.Ciphertext {
	if acc, ok := bt.accPool.Get().(*rlwe.Ciphertext); ok {
		return acc
	}
	return bt.NewAccumulator()
}

// RecycleAccumulator hands an accumulator nothing refers to any more back to
// the pool BlindRotateBatch draws from.
func (bt *Bootstrapper) RecycleAccumulator(acc *rlwe.Ciphertext) { bt.accPool.Put(acc) }

// BlindRotateOneInto is BlindRotateOne writing into a caller-owned
// accumulator with a per-worker scratch arena (BlindRotateTile over a tile of
// one); allocation-free in steady state.
func (bt *Bootstrapper) BlindRotateOneInto(out *rlwe.Ciphertext, lwe *rlwe.LWECiphertext, sc *tfhe.Scratch) {
	bt.BlindRotateTile([]*rlwe.Ciphertext{out}, []*rlwe.LWECiphertext{lwe}, sc)
}

// BlindRotateKey returns the node's blind-rotate key (nil on a cold node).
// The cluster's key-streaming sender serializes it for distribution; the key
// is public material ("brk public keys can be computed offline", §II-B), so
// exposing it leaks no secret.
func (bt *Bootstrapper) BlindRotateKey() *tfhe.BlindRotateKey { return bt.brk }

// BinaryKey reports the kind of blind-rotate key the configuration implies:
// binary for the n_t-dimensional binary LWE secret (NT > 0), ternary in exact
// mode, which rotates under the ternary RLWE secret. Key receivers size and
// check what they accept from it, never from the wire.
func (bt *Bootstrapper) BinaryKey() bool { return bt.Cfg.NT > 0 }

// checkKey validates a key the bootstrapper did not generate: its dimension
// must match the LWE dimension the bootstrapper extracts to (N in exact mode,
// n_t otherwise), its kind must be the one the configuration implies
// (BinaryKey), and its rows must match that kind (tfhe CheckShape).
func (bt *Bootstrapper) checkKey(k *tfhe.BlindRotateKey) error {
	dim := bt.Cfg.NT
	if dim == 0 {
		dim = bt.Params.N()
	}
	if k == nil || k.NumKeys() != dim {
		got := 0
		if k != nil {
			got = k.NumKeys()
		}
		return fmt.Errorf("core: blind-rotate key covers %d indices, want %d", got, dim)
	}
	if k.Binary != bt.BinaryKey() {
		return fmt.Errorf("core: blind-rotate key has binary=%v, the configuration (NT=%d) wants binary=%v", k.Binary, bt.Cfg.NT, bt.BinaryKey())
	}
	return k.CheckShape()
}

// BlindRotateTile rotates one key-major tile of prepared LWE ciphertexts
// into caller-owned accumulators (tfhe.BlindRotateTileInto): the blind-rotate
// key is pulled through cache once for the whole tile. It is the building
// block cluster workers drain the shared queue with.
func (bt *Bootstrapper) BlindRotateTile(accs []*rlwe.Ciphertext, lwes []*rlwe.LWECiphertext, sc *tfhe.Scratch) {
	bt.tfheEv.BlindRotateTileInto(accs, lwes, bt.lut, bt.rotateKey(), sc)
}

// BlindRotateBatch runs the key-major batched engine over prepared LWE
// ciphertexts, filling nil entries of accs. Without an opts.NewAcc it draws
// accumulators from the bootstrapper's pool (RecycleAccumulator); see
// tfhe.BatchOptions for the worker fan-out and the streaming per-tile hook.
func (bt *Bootstrapper) BlindRotateBatch(accs []*rlwe.Ciphertext, lwes []*rlwe.LWECiphertext, opts tfhe.BatchOptions) error {
	if bt.brk == nil {
		return keyCold("blind-rotate key")
	}
	return bt.blindRotateBatch(accs, lwes, bt.brk, opts)
}

// BlindRotateBatchWithKey is BlindRotateBatch under an explicit blind-rotate
// key instead of the installed one — the multi-tenant serving entry point:
// the bootstrapper contributes the parameter set, the params-only lookup
// table, and the scratch pools, while each request carries its tenant's key
// resolved from a registry. The LUT depends only on the public parameters
// (coef = q0·N⁻¹ mod Q) and a blind rotation is deterministic in
// (lwe, lut, brk), so a ColdStart server computes accumulators bit-identical
// to the tenant running the same rotation locally.
func (bt *Bootstrapper) BlindRotateBatchWithKey(accs []*rlwe.Ciphertext, lwes []*rlwe.LWECiphertext, brk *tfhe.BlindRotateKey, opts tfhe.BatchOptions) error {
	if err := bt.checkKey(brk); err != nil {
		return err
	}
	return bt.blindRotateBatch(accs, lwes, brk, opts)
}

func (bt *Bootstrapper) blindRotateBatch(accs []*rlwe.Ciphertext, lwes []*rlwe.LWECiphertext, brk *tfhe.BlindRotateKey, opts tfhe.BatchOptions) error {
	if opts.NewAcc == nil {
		opts.NewAcc = bt.pooledAccumulator
	}
	return bt.tfheEv.BlindRotateBatchInto(accs, lwes, bt.lut, brk, opts)
}

// Missing returns the LWE indices whose accumulators have not been computed
// yet (nil entries of accs). A prepared bootstrap is resumable: the blind
// rotations are mutually independent, so after a partial distributed run —
// some shards lost to node failures — only the returned indices still need
// work before Finish can run.
func (prep *PreparedBootstrap) Missing(accs []*rlwe.Ciphertext) []int {
	if len(accs) != len(prep.LWEs) {
		panic("core: accumulator slice does not match the prepared bootstrap")
	}
	var missing []int
	for i, acc := range accs {
		if acc == nil {
			missing = append(missing, i)
		}
	}
	return missing
}

// CompleteMissing blind-rotates every missing accumulator locally through
// the key-major batched engine: the missing indices are tiled so each RGSW
// key is streamed once per tile, and tiles are fanned out over Cfg.Workers
// goroutines, each owning its scratch arena. It is the fall-back compute of
// a degraded cluster (all peers dead → the primary completes the shards
// itself) and the local half of BootstrapSparse. Shard-lane BlindRotate
// spans are recorded per tile.
func (bt *Bootstrapper) CompleteMissing(prep *PreparedBootstrap, accs []*rlwe.Ciphertext) {
	missing := prep.Missing(accs)
	if len(missing) == 0 {
		return
	}
	tok := bt.rec.Begin(obs.StageBlindRotate, obs.LanePipeline)
	lwes := make([]*rlwe.LWECiphertext, len(missing))
	for k, idx := range missing {
		lwes[k] = prep.LWEs[idx]
	}
	out := make([]*rlwe.Ciphertext, len(missing))
	err := bt.BlindRotateBatch(out, lwes, tfhe.BatchOptions{Workers: bt.Cfg.Workers})
	bt.rec.End(obs.StageBlindRotate, obs.LanePipeline, tok)
	if err != nil {
		// The prepared LWEs and the key material are the bootstrapper's own;
		// a failure here means a key-cold bootstrapper (ErrKeyCold) or
		// corrupted keys, not a recoverable input error.
		panic(err)
	}
	for k, idx := range missing {
		accs[idx] = out[k]
	}
}

// Finish executes steps 4–5 of Algorithm 2 on the collected accumulators:
// repack, add ct', multiply by round(p/2N) and rescale by p. Accumulators
// may be in coefficient or NTT representation; they are consumed as scratch.
// The merge tree is fanned out over Cfg.Workers goroutines through a
// MergeCollector, so the repack scales with cores; the output is
// bit-identical for every worker count.
func (bt *Bootstrapper) Finish(prep *PreparedBootstrap, accs []*rlwe.Ciphertext) (*rlwe.Ciphertext, error) {
	count := prep.Count
	if count == 0 {
		count = len(accs)
	}
	if len(accs) != count {
		return nil, fmt.Errorf("core: %d accumulators for a bootstrap of count %d", len(accs), count)
	}
	merged, err := bt.repack(accs)
	if err != nil {
		return nil, err
	}
	return bt.finishMerged(prep, merged, count)
}

// repack merges the accumulators under one Repack span, which ends on every
// return so a failed repack still shows up in the metrics and the trace.
func (bt *Bootstrapper) repack(accs []*rlwe.Ciphertext) (*rlwe.Ciphertext, error) {
	count := len(accs)
	mc, err := bt.NewMergeCollector(count)
	if err != nil {
		return nil, err
	}
	tok := bt.rec.Begin(obs.StageRepack, obs.LanePipeline)
	defer bt.rec.End(obs.StageRepack, obs.LanePipeline, tok)
	workers := min(bt.Cfg.Workers, count)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < count && errs[w] == nil; i += workers {
				errs[w] = mc.Add(i, accs[i])
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return mc.Merged()
}

// FinishMerged executes the tail of Finish on an already-merged ciphertext —
// the output of a MergeCollector whose Add calls ran concurrently with the
// blind-rotate/network fan-out (the streaming path of cluster bootstraps).
func (bt *Bootstrapper) FinishMerged(prep *PreparedBootstrap, merged *rlwe.Ciphertext) (*rlwe.Ciphertext, error) {
	if bt.repacker == nil {
		return nil, keyCold("packing keys")
	}
	count := prep.Count
	if count == 0 {
		return nil, fmt.Errorf("core: prepared bootstrap has no count")
	}
	return bt.finishMerged(prep, merged, count)
}

// finishMerged adds ct′, runs the shared trace, and rescales by the
// auxiliary prime. ctKq is consumed.
func (bt *Bootstrapper) finishMerged(prep *PreparedBootstrap, ctKq *rlwe.Ciphertext, count int) (*rlwe.Ciphertext, error) {
	tok := bt.rec.Begin(obs.StageFinish, obs.LanePipeline)
	defer bt.rec.End(obs.StageFinish, obs.LanePipeline, tok)
	p := bt.Params
	n := p.N()
	level := p.MaxLevel()
	bL := p.QBasis.AtLevel(level)

	// ct′, pre-scaled by count·N^{-1} so that after the shared trace
	// (factor N/count on subring coefficients) both parts carry factor 1. It
	// joins the merged ciphertext in the coefficient domain, where the trace
	// runs.
	ctPrime := bL.NewPoly()
	addPrime := func(r []int64, acc rns.Poly) {
		bL.SetSigned(r, ctPrime)
		for i := 0; i < level; i++ {
			ri := bL.Rings[i]
			c := ri.Mod.MulMod(uint64(count)%ri.Mod.Q, bt.invNModQ[i])
			ri.MulScalar(ctPrime.Limbs[i], c, ctPrime.Limbs[i])
		}
		bL.Add(acc, ctPrime, acc)
	}
	addPrime(prep.rC0, ctKq.C0)
	addPrime(prep.rC1, ctKq.C1)

	// Shared trace: completes the packing of ct_kq and annihilates the
	// non-subring junk of ct′ in one pass.
	ctKq, err := bt.repacker.Trace(ctKq, count)
	if err != nil {
		return nil, err
	}

	// round(p/2N) and the rescale by p where the trace leaves the
	// ciphertext, in coefficients, then the repack's one forward transform,
	// of the limbs the rescale keeps — bit-identical to transforming first,
	// as every step is linear and exact on canonical residues. Per-limb work
	// with nothing beside it, so it runs at the key switcher's width like the
	// trace.
	comps := [2]rns.Poly{ctKq.C0, ctKq.C1}
	bt.ks.Fan(2*level, func(t int) {
		limb, r := comps[t/level].Limbs[t%level], bL.Rings[t%level]
		r.MulScalar(limb, uint64(bt.pScalar)%r.Mod.Q, limb)
	})
	out := bt.ks.DivRoundByLastModulus(ctKq)
	kept := [2]rns.Poly{out.C0, out.C1}
	bt.ks.Fan(2*(level-1), func(t int) {
		i := t % (level - 1)
		bL.Rings[i].NTT(kept[t/(level-1)].Limbs[i])
	})
	out.IsNTT = true
	bt.rec.Add(obs.CounterNTT, uint64(2*(level-1)))
	// phase_out = m̃ · (2N·round(p/2N)/p); fold the residual factor into the
	// tracked scale so decoding stays exact.
	out.Scale = prep.Scale * float64(2*n) * float64(bt.pScalar) / float64(bt.pAux)
	return out, nil
}

// Bootstrap refreshes a level-1 ciphertext to level AppMaxLevel following
// Algorithm 2, fanning the blind rotations out over Cfg.Workers local
// goroutines. The message magnitude must satisfy |m| ≲ q0/4 so the
// wrap-around value stays inside the lookup table's range (DESIGN.md).
func (bt *Bootstrapper) Bootstrap(ct *rlwe.Ciphertext) *rlwe.Ciphertext {
	return bt.BootstrapSparse(ct, bt.Params.N())
}

// BootstrapSparse bootstraps with the paper's n_br knob: only `count`
// blind rotations for a ciphertext whose message lives in the
// X^{N/count} subring (count = 2·slots for a sparse packing). The
// per-bootstrap work scales linearly with count (§VI-F.1: "sparser packing
// means less LWE ciphertexts and BlindRotate operations").
func (bt *Bootstrapper) BootstrapSparse(ct *rlwe.Ciphertext, count int) *rlwe.Ciphertext {
	prep := bt.PrepareSparse(ct, count)
	accs := make([]*rlwe.Ciphertext, len(prep.LWEs))
	bt.CompleteMissing(prep, accs)
	out, err := bt.Finish(prep, accs)
	if err != nil {
		// PrepareSparse validated count and level and CompleteMissing filled
		// every accumulator; a failure here means corrupted key material, not
		// a recoverable input error.
		panic(err)
	}
	// Finish consumed the accumulators as scratch and its output is freshly
	// allocated, so nothing refers to them any more.
	for _, acc := range accs {
		bt.RecycleAccumulator(acc)
	}
	return out
}

// ExpectedSlotErrorBound returns the analytic bound on the decoded slot
// error of one bootstrap (DESIGN.md): each coefficient's wrap-around value
// carries an integer rounding error ε from the dimension-reducing key
// switch (variance ≈ (1 + n_t/2)/12), each such error contributes q0·ε to
// the phase, and the decoding DFT accumulates √(N/2) of them per slot.
// In exact mode (NT = 0) ε = 0 and only the blind-rotate/packing noise
// remains.
func (bt *Bootstrapper) ExpectedSlotErrorBound() float64 {
	if bt.Cfg.NT == 0 {
		return 1e-2
	}
	n := float64(bt.Params.N())
	q0 := float64(bt.Params.Q[0])
	epsVar := (1 + float64(bt.Cfg.NT)/2) / 12
	rms := math.Sqrt(n/2*epsVar) * q0 / (2 * n * bt.Params.DefaultScale)
	return 5 * rms // ~5σ head-room on the max over N/2 slots
}
