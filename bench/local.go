package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"heap"
	"heap/internal/ckks"
	"heap/internal/obs"
	"heap/internal/rlwe"
	"heap/internal/tfhe"
)

// ringSpec is the parameter set of one in-process workload.
type ringSpec struct {
	LogN, LimbBits, Limbs, PLimbs, Dnum, LogScale, Slots int
	NT, Workers                                          int
	ColdStart                                            bool
}

// newContext generates every key of the workload from the run's seed.
func (rs ringSpec) newContext(seed int64) (*heap.Context, error) {
	bc := heap.PaperContextConfig().Bootstrap
	bc.NT, bc.Workers, bc.ColdStart = rs.NT, rs.Workers, rs.ColdStart
	bc.Seed = uint64(seed) + 2
	return heap.NewContext(heap.ContextConfig{
		LogN: rs.LogN, LimbBits: rs.LimbBits, Limbs: rs.Limbs, PLimbs: rs.PLimbs, Dnum: rs.Dnum,
		LogScale: rs.LogScale, Slots: rs.Slots, Seed: uint64(seed), Bootstrap: bc,
	})
}

func (rs ringSpec) params() map[string]any {
	return map[string]any{
		"logN": rs.LogN, "limb_bits": rs.LimbBits, "q_limbs": rs.Limbs, "p_limbs": rs.PLimbs,
		"dnum": rs.Dnum, "log_scale": rs.LogScale, "slots": rs.Slots, "n_t": rs.NT,
		"workers": rs.Workers, "cold_start": rs.ColdStart,
	}
}

// localInput is one generated operation: the program under test sees ct (and
// accs); want is the plaintext result the decrypted output is compared with.
type localInput struct {
	ct   *rlwe.Ciphertext
	accs []*rlwe.Ciphertext
	want []complex128
}

// local is an in-process workload: one client calling the library in a
// closed loop. The three local workloads differ only in these fields.
type local struct {
	ctx     *heap.Context
	spec    ringSpec
	seed    int64
	limitMs float64
	tol     float64 // an output whose largest slot error exceeds tol is incorrect
	keygenS float64
	rots    int // blind rotations per operation

	rng    *rand.Rand
	client *ckks.Client
	// next generates the next input; op is the timed call. Spans go to tr
	// under parent (tr may be nil).
	next func() localInput
	op   func(in localInput, tr *tracer, parent, id int) (*rlwe.Ciphertext, error)
}

func newLocal(rs ringSpec, seed int64, limitMs float64) (*local, error) {
	t0 := time.Now()
	ctx, err := rs.newContext(seed)
	if err != nil {
		return nil, err
	}
	return &local{ctx: ctx, spec: rs, seed: seed, limitMs: limitMs, keygenS: time.Since(t0).Seconds()}, nil
}

// reset rewinds the input generator, so every pass of a run draws the same
// values and the same encryption randomness.
func (w *local) reset() {
	w.rng = rand.New(rand.NewSource(w.seed))
	w.client = ckks.NewClient(w.ctx.Params, w.ctx.SK, uint64(w.seed)+1)
}

// values draws n slot values with both components in [-amp, amp].
func (w *local) values(n int, amp float64) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(amp*(2*w.rng.Float64()-1), amp*(2*w.rng.Float64()-1))
	}
	return v
}

func maxSlotErr(got, want []complex128) float64 {
	if len(got) < len(want) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range want {
		d := got[i] - want[i]
		if e := math.Hypot(real(d), imag(d)); e > worst || math.IsNaN(e) {
			worst = e
		}
	}
	return worst
}

// opRun is what one timed operation reports back.
type opRun struct {
	out           *rlwe.Ciphertext
	err           error
	wall, cpu     time.Duration
	mallocs, size uint64
}

// timed runs one operation on its own goroutine, so that a call that never
// returns costs the run its timeout and not its life. ok is false on timeout;
// the goroutine is then abandoned and the caller must end the pass.
func (w *local) timed(in localInput, tr *tracer, id int, timeout time.Duration) (opRun, bool) {
	done := make(chan opRun, 1)
	go func() {
		var r opRun
		var m0, m1 runtime.MemStats
		if tr != nil {
			runtime.ReadMemStats(&m0)
		}
		root := tr.begin("op", -1, id, 0)
		c0, t0 := selfCPU(), time.Now()
		func() {
			defer func() {
				if p := recover(); p != nil {
					r.err = fmt.Errorf("operation panicked: %v", p)
				}
			}()
			r.out, r.err = w.op(in, tr, root, id)
		}()
		r.wall, r.cpu = time.Since(t0), selfCPU()-c0
		tr.end(root)
		if tr != nil {
			runtime.ReadMemStats(&m1)
			r.mallocs, r.size = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		}
		done <- r
	}()
	select {
	case r := <-done:
		return r, true
	case <-time.After(timeout):
		return opRun{}, false
	}
}

// judge classifies one finished operation by decrypting its output.
func (w *local) judge(in localInput, r opRun) (outcome, float64) {
	if r.err != nil || r.out == nil {
		return errored, 0
	}
	e := maxSlotErr(w.ctx.Decrypt(r.out), in.want)
	if !(e <= w.tol) {
		return incorrect, e
	}
	return correct, e
}

func (w *local) pass(lim limits, tr *tracer) passResult {
	var res passResult
	w.reset()
	if _, ok := w.timed(w.next(), nil, 0, lim.opTimeout); !ok {
		res.add(unfinished)
		return res
	}
	var met *obs.Metrics
	if tr != nil {
		met = obs.NewMetrics()
		w.ctx.Boot.SetRecorder(met)
		w.ctx.Eval.KS.SetRecorder(met)
		defer w.ctx.Boot.SetRecorder(nil)
		defer w.ctx.Eval.KS.SetRecorder(nil)
	}
	start := time.Now()
	for i := 1; lim.more(i-1, start); i++ {
		in := w.next()
		r, ok := w.timed(in, tr, i, lim.opTimeout)
		if !ok {
			res.add(unfinished)
			break
		}
		o, e := w.judge(in, r)
		res.add(o)
		res.wallS += r.wall.Seconds()
		res.cpuMs = append(res.cpuMs, float64(r.cpu)/1e6)
		res.mallocs += r.mallocs
		res.allocB += r.size
		if e > res.maxErr {
			res.maxErr = e
		}
		if o == correct {
			ms := float64(r.wall) / 1e6
			res.latMs = append(res.latMs, ms)
			if ms <= w.limitMs {
				res.within++
			}
		}
	}
	if met != nil {
		snap := met.Snapshot()
		res.counters = snap.Counters
		res.stageMs = make(map[string]float64)
		for name, st := range snap.Pipeline {
			res.stageMs[name] = st.TotalMs
		}
	}
	return res
}

func (w *local) layers(m map[string]float64, r *passResult, tr *tracer) {
	n := float64(r.executed())
	if n == 0 {
		return
	}
	m["rlwe.ntt_limb_transforms_per_op"] = r.perOp("ntt_limb_transforms")
	m["rlwe.external_products_per_op"] = r.perOp("external_products")
	m["rlwe.key_switches_per_op"] = r.perOp("key_switches")
	m["rlwe.merges_per_op"] = r.perOp("merges")
	m["tfhe.tiles_per_op"] = r.perOp("blind_rotate_tiles")
	if rot := r.counters["blind_rotates"]; rot > 0 {
		m["tfhe.brk_bytes_per_rot"] = float64(r.counters["brk_bytes_streamed"]) / float64(rot)
	}
	if brk := w.ctx.Boot.BlindRotateKey(); brk != nil {
		m["tfhe.key_mb"] = float64(brk.SizeBytes()) / 1e6
	}
	m["ckks.rotate_ms"] = median(tr.durationsMs("ckks.rotate"))
	m["ckks.mulrelinrescale_ms"] = median(tr.durationsMs("ckks.mulrelinrescale"))
	m["ckks.add_us"] = 1e3 * median(tr.durationsMs("ckks.add"))
	m["core.prepare_ms"] = median(tr.durationsMs("core.prepare"))
	m["core.rotate_ms"] = median(tr.durationsMs("core.rotate"))
	m["core.finish_ms"] = median(tr.durationsMs("core.finish"))
	m["core.self_ms"] = median(tr.selfMs())
	m["core.stage_extract_ms"] = r.stageMs["Extract"] / n
	m["core.stage_repack_ms"] = r.stageMs["Repack"] / n
	m["core.stage_finish_ms"] = r.stageMs["Finish"] / n
	m["core.allocs_per_op"] = float64(r.mallocs) / n
	m["core.alloc_mb_per_op"] = float64(r.allocB) / n / 1e6
	m["core.keygen_s"] = w.keygenS
	// How much of the operation's CPU the layer below explains: limb
	// transforms counted, times what one costs; the rest is the residual.
	// Only where the workload runs on the ring the kernels were timed at.
	if paper := heap.PaperContextConfig(); w.spec.LogN == paper.LogN && w.spec.LimbBits == paper.LimbBits && r.cpuPerOp() > 0 {
		perTransformMs := (m["ring.ntt_us"] + m["ring.intt_us"]) / 2 / 1e3
		m["core.explained_share"] = r.perOp("ntt_limb_transforms") * perTransformMs / r.cpuPerOp()
	}
	// Blind rotation's parallel efficiency: the work of the operation's
	// rotations at single-thread cost over what the workers' wall paid for.
	if rot := m["core.rotate_ms"]; rot > 0 && w.rots > 0 {
		m["tfhe.parallel_eff"] = float64(w.rots) * m["tfhe.rot_ms_binary_1t"] / (float64(w.spec.Workers) * rot)
	}
}

func (w *local) params() map[string]any {
	p := w.spec.params()
	p["limit_ms"] = w.limitMs
	return p
}
func (w *local) rssPID() int { return 0 }
func (w *local) close()      {}

// bootAmp keeps |m|·Δ well inside q0/4, the lookup table's valid range.
const bootAmp = 0.25

// setupBoot is boot_paper_ring: a sparse scheme-switching bootstrap of a
// level-1 ciphertext, 2·Slots blind rotations fanned over Workers.
func setupBoot(rs ringSpec, seed int64, limitMs float64) (instance, error) {
	w, err := newLocal(rs, seed, limitMs)
	if err != nil {
		return nil, err
	}
	boot, count := w.ctx.Boot, 2*rs.Slots
	w.tol, w.rots = boot.ExpectedSlotErrorBound(), count
	w.next = func() localInput {
		v := w.values(rs.Slots, bootAmp)
		return localInput{ct: w.client.EncryptAtLevel(v, 1), want: v}
	}
	w.op = func(in localInput, tr *tracer, parent, id int) (*rlwe.Ciphertext, error) {
		if tr == nil {
			return boot.BootstrapSparse(in.ct, count), nil
		}
		// The same three steps BootstrapSparse makes, with a span around each.
		s := tr.begin("core.prepare", parent, id, 0)
		prep := boot.PrepareSparse(in.ct, count)
		tr.end(s)
		accs := make([]*rlwe.Ciphertext, count)
		s = tr.begin("core.rotate", parent, id, 0)
		err := boot.BlindRotateBatch(accs, prep.LWEs, tfhe.BatchOptions{Workers: rs.Workers})
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("core.finish", parent, id, 0)
		defer tr.end(s)
		return boot.Finish(prep, accs)
	}
	return w, nil
}

// setupTail is primary_tail: PrepareSparse plus Finish on accumulators that
// set-up rotated once for real. Finish consumes its accumulators, so every
// operation gets a copy made outside the timed section.
func setupTail(rs ringSpec, seed int64, limitMs float64) (instance, error) {
	w, err := newLocal(rs, seed, limitMs)
	if err != nil {
		return nil, err
	}
	boot, count := w.ctx.Boot, 2*rs.Slots
	w.tol = boot.ExpectedSlotErrorBound()
	w.reset()
	v := w.values(rs.Slots, bootAmp)
	ct := w.client.EncryptAtLevel(v, 1)
	prep := boot.PrepareSparse(ct, count)
	accs := make([]*rlwe.Ciphertext, count)
	boot.CompleteMissing(prep, accs)
	w.next = func() localInput {
		in := localInput{ct: ct, want: v, accs: make([]*rlwe.Ciphertext, count)}
		for i, acc := range accs {
			in.accs[i] = acc.CopyNew()
		}
		return in
	}
	w.op = func(in localInput, tr *tracer, parent, id int) (*rlwe.Ciphertext, error) {
		s := tr.begin("core.prepare", parent, id, 0)
		prep := boot.PrepareSparse(in.ct, count)
		tr.end(s)
		s = tr.begin("core.finish", parent, id, 0)
		defer tr.end(s)
		return boot.Finish(prep, in.accs)
	}
	return w, nil
}

// chainTol is far above the chain's error (about 2^-20) and far below any
// wrong answer.
const chainTol = 1.0 / (1 << 10)

// setupChain is ckks_chain_paper_ring: from a fresh top-level ciphertext,
// y = x + rot(x,1); x = rescale(relin(y·x)) down to level 1.
//
// Inputs have real part in [0.25, 0.45] and imaginary part in [-0.1, 0.1]:
// that disc maps into itself under (x + rot x)·x without collapsing to zero,
// so every intermediate stays inside [-1, 1] and the last one is still worth
// comparing.
//
// The library's Δ sits one bit under its limb size, so a bare Mul→Rescale
// chain squares the deficit at every level (2^35 → 2^4 after five, measured)
// and decrypts to noise. After each rescale the chain therefore multiplies x
// by the integer that brings its scale back to Δ and declares the scale
// multiplied too: exact, and what an application at these parameters must do.
func setupChain(rs ringSpec, seed int64, limitMs float64) (instance, error) {
	w, err := newLocal(rs, seed, limitMs)
	if err != nil {
		return nil, err
	}
	ev, top := w.ctx.Eval, w.ctx.Boot.AppMaxLevel()
	w.tol = chainTol
	w.next = func() localInput {
		v := w.values(rs.Slots, 0.1)
		for i := range v {
			v[i] += 0.35
		}
		in := localInput{ct: w.client.EncryptAtLevel(v, top)}
		n := len(v)
		for level := top; level > 1; level-- {
			next := make([]complex128, n)
			for j := range v {
				next[j] = (v[j] + v[(j+1)%n]) * v[j]
			}
			v = next
		}
		in.want = v
		return in
	}
	w.op = func(in localInput, tr *tracer, parent, id int) (*rlwe.Ciphertext, error) {
		x := in.ct
		for x.Level() > 1 {
			s := tr.begin("ckks.rotate", parent, id, 0)
			r := ev.Rotate(x, 1)
			tr.end(s)
			s = tr.begin("ckks.add", parent, id, 0)
			y := ev.Add(x, r)
			tr.end(s)
			s = tr.begin("ckks.mulrelinrescale", parent, id, 0)
			x = ev.MulRelinRescale(y, x)
			tr.end(s)
			if k := math.Round(w.ctx.Params.DefaultScale / x.Scale); k > 1 {
				x = ev.MulByConstInt(x, int64(k))
				x.Scale *= k
			}
		}
		return x, nil
	}
	return w, nil
}
