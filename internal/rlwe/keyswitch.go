package rlwe

import (
	"sync"

	"heap/internal/obs"
	"heap/internal/ring"
	"heap/internal/rns"
)

// KeySwitcher implements the gadget-decomposition + MAC + ModDown kernel
// shared by CKKS KeySwitch and the TFHE ExternalProduct. It is safe for
// concurrent use after construction: all precomputation is read-only, the
// permutation cache is lock-guarded, and per-call scratch comes from either
// a caller-owned Scratch arena (the allocation-free hot path) or an internal
// pool (the convenience API).
//
// The kernel is limb-major. Once the inputs are in coefficient form and the
// shared y_i = x_i·q̂_i⁻¹ of every source limb exist, limb t of the extended
// basis is an independent task — raise each digit into it, transform, MAC
// against the key rows, and, for a P limb, scale both accumulators' limb for
// the ModDowns — and so is every Q-limb step of the two ModDowns. A key switch
// is three such phases with a barrier after each (inputLimb, digitLimb,
// modDownQLimb); the steps around it ride in them (a rotation permutes its C1
// in the first and its C0 in the last). Every task writes its own limb of the
// arena (and its goroutine's lane of digit scratch) and runs the same kernels
// in the same order per limb whoever executes it, so the output does not
// depend on how many goroutines shared the work: an arena of width 1 loops, a
// wider one fans the tasks out (fan.go).
type KeySwitcher struct {
	params *Parameters
	alpha  int
	// digitExt[d] extends gadget digit d — the window Q[dα : (d+1)α], or the
	// prefix of it a lower level leaves — into the full QP basis; digitOf[i]
	// is the digit Q limb i belongs to. Both are resolved here once, so a limb
	// task looks nothing up by key and divides nothing.
	digitExt []*rns.Extender
	digitOf  []int
	modDown  *rns.ModDown
	// permCache caches NTT-domain automorphism permutations per Galois
	// element. permMu guards it: Automorphism fills it lazily, so concurrent
	// rotations with a cold cache would otherwise race on the map.
	permMu    sync.RWMutex
	permCache map[uint64][]uint64

	// rec receives the kernel-granularity cost counters (NTT limb
	// transforms, external products, key switches). Always non-nil; the
	// default obs.Nop makes every instrumentation site a free leaf call, so
	// the zero-allocation hot-path locks hold with the counters compiled in.
	rec obs.Recorder

	// workers is what SetWorkers configured; see width. fans says whether the
	// ring is large enough (minFanDegree) for limb tasks ever to be handed to
	// other goroutines; it also sets the granularity of the digit phase.
	workers int
	fans    bool

	scratchPool sync.Pool
	// lastLimbs pools the rescale's two N-word last-limb buffers
	// (DivRoundByLastModulus), as a *rns.Poly of two limbs.
	lastLimbs sync.Pool
}

// NewKeySwitcher precomputes all basis-conversion tables for the parameter
// set: one extender per gadget digit (its tables cover every window length a
// lower level can leave) and the P→Q ModDown tables.
func NewKeySwitcher(params *Parameters) *KeySwitcher {
	ks := &KeySwitcher{
		params:    params,
		alpha:     params.Alpha(),
		modDown:   rns.NewModDown(params.QBasis, params.PBasis),
		permCache: make(map[uint64][]uint64),
		rec:       obs.Nop{},
		fans:      params.N() >= minFanDegree,
	}
	L := params.MaxLevel()
	for start := 0; start < L; start += ks.alpha {
		src := &rns.Basis{Rings: params.QBasis.Rings[start:min(start+ks.alpha, L)], LogN: params.LogN, N: params.N()}
		for range src.Rings {
			ks.digitOf = append(ks.digitOf, len(ks.digitExt))
		}
		ks.digitExt = append(ks.digitExt, rns.NewExtender(src, params.QPBasis))
	}
	ks.scratchPool.New = func() any { return ks.NewScratch() }
	ks.lastLimbs.New = func() any {
		buf := rns.NewPolySlab(2, params.N())
		return &buf
	}
	return ks
}

// SetRecorder installs the observability recorder the kernel counters
// report to (nil restores the no-op default). Install before the key
// switcher is shared across goroutines; the recorder itself must be
// concurrency-safe.
func (ks *KeySwitcher) SetRecorder(r obs.Recorder) { ks.rec = obs.OrNop(r) }

// Recorder returns the installed recorder (never nil). Components built on
// top of the key switcher — the TFHE evaluator, the repacker — report their
// own stages and counters through it, so one installation covers the whole
// kernel stack.
func (ks *KeySwitcher) Recorder() obs.Recorder { return ks.rec }

// EnsurePerm precomputes and caches the NTT-domain permutation for Galois
// element g. Safe for concurrent use (double-checked under an RWMutex), so
// lazy callers like Automorphism may hit a cold cache from many goroutines.
func (ks *KeySwitcher) EnsurePerm(g uint64) []uint64 {
	ks.permMu.RLock()
	p, ok := ks.permCache[g]
	ks.permMu.RUnlock()
	if ok {
		return p
	}
	ks.permMu.Lock()
	defer ks.permMu.Unlock()
	if p, ok := ks.permCache[g]; ok {
		return p
	}
	p = ks.params.QBasis.Rings[0].AutomorphismNTTIndex(g)
	ks.permCache[g] = p
	return p
}

// Scratch is a per-worker arena holding every intermediate of the
// key-switch/external-product kernel: accumulators, the digit lanes, the
// coefficient-form copies and scaled y_i of the inputs, temporaries for the
// steps around a key switch, and the two ModDowns' scratch. It is
// the software analog of the paper's §VI-B plan of keeping all BlindRotate
// operands resident in on-chip URAM/BRAM: one arena per worker, reused for
// every external product, so the steady-state datapath never allocates.
// A Scratch must not be shared between concurrent calls. Whether one call may
// itself use several goroutines is the arena's width: 1 for an arena made by
// NewScratch, the key switcher's for its pooled ones (SetWorkers).
//
// acc and acc2 are polynomials over the QP basis indexed by QP limb — Q limbs
// first, then P — so a product at level ℓ touches limbs [0, ℓ) and [L, L+|P|)
// and leaves the Q limbs between alone.
type Scratch struct {
	acc [2]rns.Poly // b-side and a-side accumulators, NTT
	c   [2]rns.Poly // coefficient-form copies of NTT-form inputs
	t   [2]rns.Poly // temporaries of the steps around a key switch
	y   [2]rns.Poly // y_i = x_i·q̂_i⁻¹ per input component and Q limb
	md  [2]*rns.ModDownScratch
	// lanes[w] is the digit-phase scratch of the arena's goroutine w (see
	// runLanes): one lane for an arena of width 1, grown to the width on a
	// wider arena's first digit phase.
	lanes []digitLane

	// The second accumulator pair and the two N-word monomial vectors serve
	// the two-key product of the ternary blind rotation only; ensureTwoKey
	// sizes them on its first call, so every other user's arena stays as
	// small as it was.
	acc2                [2]rns.Poly
	monoPlus, monoMinus ring.Poly

	// width is how many goroutines the arena's limb tasks may be spread over
	// (see run); job is what they read.
	width int
	job   limbJob
}

// digitLane is what one digit-phase task has in flight: the raised digits of
// one QP limb — comps × digits of them, digit d of component c at c·D + d for
// D digits — and the key-row limbs the dot product of one accumulator side
// pairs them with. Only a limb per digit, not a polynomial: the task finishes
// the limb before it raises the next one.
type digitLane struct {
	digs, rows []ring.Poly
}

// limbJob is the operation in flight on an arena — what its limb tasks read.
// The entry points fill it, run the phases, and leave it behind; the next
// operation overwrites what it uses.
type limbJob struct {
	level int // Q limbs of the operation
	comps int // components being decomposed: 1, or 2 for an external product
	// in[c] is component c in coefficient form. Where ntt[c] has limbs the
	// input arrived in NTT form and inputLimb fills in[c] from it.
	ntt, in [2]rns.Poly
	// key[c] holds the rows component c's digits are MACed against into acc,
	// key2[c] (two-key product only) those MACed into acc2.
	key, key2 [2]*GadgetCiphertext
	// out and coeff are the destinations and output form of the two ModDowns;
	// add[s] makes ModDown s add its result to out[s] instead of writing it.
	out   [2]rns.Poly
	coeff bool
	add   [2]bool
	// foldP makes the digit phase scale each P limb of both accumulators for
	// the ModDowns as soon as its MAC is done (ModDown.ScaleLimb); without it
	// the ModDowns run that step as a phase of its own, which the two-key
	// product needs because it combines the accumulators in between.
	foldP bool
	// hoisted is the decomposition DecomposeInto stores to and
	// ApplyGaloisHoistedInto permutes from.
	hoisted *Hoisted
	// perm is a rotation's NTT-slot permutation: the input phase applies it
	// to the NTT-form input as it brings it to coefficients (or, hoisted, the
	// digit phase to the stored digits), and where c0 has limbs the b-side
	// ModDown writes σ(c0) into its output before adding onto it.
	perm []uint64
	c0   rns.Poly
	// fa and fb are the factors of a multiplication (a rescaling one when
	// rescale is set): the input phase forms their tensor, the degree-0 and
	// degree-1 parts into prod and the degree-2 part as the input.
	fa, fb  *Ciphertext
	prod    [2]rns.Poly
	rescale bool
	// src, dst and g are the operands of the repack's coefficient-domain
	// steps around its key switch (Repacker.addRotated).
	src, dst [2]rns.Poly
	g        uint64
}

// begin starts an operation of level Q limbs and comps components on the
// arena: the key-switch fields of the job are reset, with the P-limb scaling
// folded into the digit phase, and the job is returned for the entry point to
// fill in.
func (sc *Scratch) begin(level, comps int) *limbJob {
	j := &sc.job
	j.level, j.comps, j.foldP = level, comps, true
	j.perm, j.c0 = nil, rns.Poly{}
	j.fa, j.fb, j.prod, j.rescale = nil, nil, [2]rns.Poly{}, false
	return j
}

// NewScratch allocates a scratch arena sized for this key switcher's
// parameter set (all buffers at the maximum level; lower levels use views).
// Its width is 1: the caller is taken to be one of several workers.
func (ks *KeySwitcher) NewScratch() *Scratch {
	p := ks.params
	sc := &Scratch{lanes: []digitLane{ks.newLane()}, width: 1}
	for s := range sc.acc {
		sc.acc[s] = p.QPBasis.NewPoly()
		sc.c[s] = p.QBasis.NewPoly()
		sc.t[s] = p.QBasis.NewPoly()
		sc.y[s] = p.QBasis.NewPoly()
		sc.md[s] = ks.modDown.NewScratch()
	}
	return sc
}

// newLane allocates one digit lane: a limb for each digit of both components
// at the top level, in one slab.
func (ks *KeySwitcher) newLane() digitLane {
	k, n := 2*len(ks.digitExt), ks.params.N()
	slab := make([]uint64, k*n)
	l := digitLane{digs: make([]ring.Poly, k), rows: make([]ring.Poly, 0, k)}
	for i := range l.digs {
		l.digs[i] = slab[i*n : (i+1)*n : (i+1)*n]
	}
	return l
}

// ensureLanes gives the arena a digit lane per goroutine of its width. It runs
// on the calling goroutine before a digit phase fans out.
func (ks *KeySwitcher) ensureLanes(sc *Scratch) {
	for len(sc.lanes) < sc.width {
		sc.lanes = append(sc.lanes, ks.newLane())
	}
}

// ensureTwoKey allocates the second accumulator pair and the monomial vectors
// on the arena's first two-key product.
func (sc *Scratch) ensureTwoKey(p *Parameters) {
	if sc.monoPlus != nil {
		return
	}
	sc.acc2 = [2]rns.Poly{p.QPBasis.NewPoly(), p.QPBasis.NewPoly()}
	sc.monoPlus = make(ring.Poly, p.N())
	sc.monoMinus = make(ring.Poly, p.N())
}

// getScratch takes a pooled arena for one top-level call — by construction a
// single stream — so the arena runs at the key switcher's width.
func (ks *KeySwitcher) getScratch() *Scratch {
	sc := ks.scratchPool.Get().(*Scratch)
	sc.width = ks.width()
	return sc
}

func (ks *KeySwitcher) putScratch(sc *Scratch) { ks.scratchPool.Put(sc) }

// qpLimb maps task t of a phase over the job's extended basis — its level Q
// limbs, then every P limb — to the QP limb it owns.
func (ks *KeySwitcher) qpLimb(sc *Scratch, t int) int {
	if t < sc.job.level {
		return t
	}
	return t - sc.job.level + ks.params.MaxLevel()
}

// pairLimb decodes task t of a phase over two operands × the job's level Q
// limbs — the tasks of operand 0 first — into (operand, limb).
func (sc *Scratch) pairLimb(t int) (s, i int) {
	if t < sc.job.level {
		return 0, t
	}
	return 1, t - sc.job.level
}

// window returns the Q-limb range [start, end) of gadget digit d at the
// job's level.
func (ks *KeySwitcher) window(sc *Scratch, d int) (start, end int) {
	start = d * ks.alpha
	return start, min(start+ks.alpha, sc.job.level)
}

// setInput makes x component c of the job: a coefficient-form polynomial is
// decomposed as it stands, an NTT-form one through the arena's copy.
func (sc *Scratch) setInput(c int, x rns.Poly, isNTT bool, key, key2 *GadgetCiphertext) {
	j := &sc.job
	j.ntt[c], j.in[c] = rns.Poly{}, x
	if isNTT {
		j.ntt[c], j.in[c] = x, sc.c[c].AtLevel(x.Level())
	}
	j.key[c], j.key2[c] = key, key2
}

// inputLimb is the first phase, one task per (component, Q limb): bring the
// limb to coefficient form in the arena if it arrived in NTT form (an
// out-of-place INTT, after the rotation's permutation where the job has one;
// a multiplication forms the tensor's limb first), then scale it into the y_i
// every destination limb of its digit's extension shares.
func (ks *KeySwitcher) inputLimb(sc *Scratch, t int) {
	j := &sc.job
	c, i := sc.pairLimb(t)
	x := j.in[c].Limbs[i]
	r := ks.params.QBasis.Rings[i]
	switch {
	case j.fa != nil:
		a, b := j.fa, j.fb
		r.MulCoeffs(a.C0.Limbs[i], b.C0.Limbs[i], j.prod[0].Limbs[i])
		r.MulCoeffs(a.C0.Limbs[i], b.C1.Limbs[i], j.prod[1].Limbs[i])
		r.MulCoeffsAndAdd(a.C1.Limbs[i], b.C0.Limbs[i], j.prod[1].Limbs[i])
		r.MulCoeffs(a.C1.Limbs[i], b.C1.Limbs[i], x)
		r.INTT(x)
	case j.perm != nil:
		r.AutomorphismNTT(j.ntt[c].Limbs[i], j.perm, x)
		r.INTT(x)
	case j.ntt[c].Limbs != nil:
		r.INTTInto(x, j.ntt[c].Limbs[i])
	}
	d := ks.digitOf[i]
	start, end := ks.window(sc, d)
	ks.digitExt[d].ScaleLimb(end-start, i-start, x, sc.y[c].Limbs[i])
}

// raiseLimb writes QP limb idx of gadget digit d of component c into dst, in
// NTT representation.
//
// A limb inside the digit's own window Q[start:end] is not recomputed: the
// basis extension would form Σ_k y_k·q̂_k mod q_i there, and for a window limb
// i every q̂_k with k ≠ i is ≡ 0 while y_i·q̂_i ≡ x_i, so the sum is the input
// residue itself, bit for bit. It is transformed straight out of the input;
// the limbs outside the window are extended from the window's y_i and
// transformed in place.
func (ks *KeySwitcher) raiseLimb(sc *Scratch, c, d, idx int, dst ring.Poly) {
	r := ks.params.QPBasis.Rings[idx]
	start, end := ks.window(sc, d)
	if idx >= start && idx < end {
		r.NTTInto(dst, sc.job.in[c].Limbs[idx])
		return
	}
	ks.digitExt[d].ExtendLimb(sc.y[c].Limbs[start:end], idx, dst)
	r.NTT(dst)
}

// macLimb writes QP limb idx of the accumulators from the lane's raised digits
// of that limb (nd digits per component): each side is one dot product of the
// digits with the key rows' limbs, acc[s] = Σ_c Σ_d digit(c, d) ⊙ key[c] row d
// — and acc2 the same against the second key when the job has one. Canonical
// residues are unique, so the words are those of summing the terms one MAC
// sweep at a time, in any order.
func (ks *KeySwitcher) macLimb(sc *Scratch, lane *digitLane, idx, nd int) {
	j := &sc.job
	r := ks.params.QPBasis.Rings[idx]
	digs := lane.digs[:j.comps*nd]
	accs := [2]*[2]rns.Poly{&sc.acc, &sc.acc2}
	for p, keys := range [2][2]*GadgetCiphertext{j.key, j.key2} {
		if keys[0] == nil {
			continue
		}
		for s := range accs[p] {
			rows := lane.rows[:0]
			for _, key := range keys[:j.comps] {
				side := key.B
				if s == 1 {
					side = key.A
				}
				for _, row := range side[:nd] {
					rows = append(rows, row.Limbs[idx])
				}
			}
			r.DotCoeffs(digs, rows, accs[p][s].Limbs[idx])
		}
	}
}

// digitLimb is the decompose→NTT→MAC body of every key switch and external
// product, one task per span of limbs of the extended basis, run on lane w:
// limb by limb, every digit of every component is raised into the lane and
// transformed, then each accumulator side's limb is written by one dot
// product of the digits with the key rows (macLimb). Nothing outside the span
// is written but the lane, and each limb sees the same kernels in the same
// order whatever the span.
//
// The span is one limb on a ring that can fan out, so that a phase has
// level+|P| tasks to share. On a smaller ring (see minFanDegree) it is the
// whole basis — one task: limb-sized tasks buy nothing where nothing fans.
func (ks *KeySwitcher) digitLimb(sc *Scratch, w, t int) {
	j := &sc.job
	lane := &sc.lanes[w]
	nd := ks.params.DigitsAtLevel(j.level)
	lo, hi := ks.span(sc, t)
	for u := lo; u < hi; u++ {
		idx := ks.qpLimb(sc, u)
		for c := 0; c < j.comps; c++ {
			for d := 0; d < nd; d++ {
				ks.raiseLimb(sc, c, d, idx, lane.digs[c*nd+d])
			}
		}
		ks.macLimb(sc, lane, idx, nd)
		ks.limbDone(sc, idx)
	}
}

// limbDone is what the digit phase does with QP limb idx of the accumulators
// once its MAC is done: a P limb of both sides is scaled for the ModDowns,
// and a rescaling multiplication lifts its last Q limb. Neither waits for
// another limb.
func (ks *KeySwitcher) limbDone(sc *Scratch, idx int) {
	j := &sc.job
	switch L := ks.params.MaxLevel(); {
	case !j.foldP:
	case idx >= L:
		for s := range sc.acc {
			ks.modDown.ScaleLimb(idx-L, sc.acc[s].Limbs[idx], sc.md[s])
		}
	case j.rescale && idx == j.level-1:
		for s := range sc.acc {
			ks.modDown.LiftLastLimb(idx, j.prod[s].Limbs[idx], sc.acc[s].Limbs[idx])
		}
	}
}

// digitTasks is the number of tasks the digit phase of the job has, and span
// the limb tasks [lo, hi) of the extended basis that task t of them covers.
func (ks *KeySwitcher) digitTasks(sc *Scratch) int {
	if !ks.fans {
		return 1
	}
	return sc.job.level + len(ks.params.P)
}

func (ks *KeySwitcher) span(sc *Scratch, t int) (lo, hi int) {
	if !ks.fans {
		return 0, sc.job.level + len(ks.params.P)
	}
	return t, t + 1
}

// gadgetProduct runs the input phase and then the digit phase — digitLimb,
// or decomposeLimb to keep the raised digits instead of accumulating them —
// over the job's inputs at the job's level:
// acc = Σ_c Σ_d digit_d(in[c]) ⊙ key[c] row d (and acc2 against key2; one
// decomposition serves both keys of a two-key product).
func (ks *KeySwitcher) gadgetProduct(sc *Scratch, digitPhase func(*KeySwitcher, *Scratch, int, int)) {
	j := &sc.job
	ks.run(sc, j.comps*j.level, (*KeySwitcher).inputLimb)
	ks.ensureLanes(sc)
	ks.runLanes(sc, ks.digitTasks(sc), digitPhase)
	transforms := j.comps * ks.params.DigitsAtLevel(j.level) * (j.level + len(ks.params.P))
	if j.ntt[0].Limbs != nil || j.fa != nil { // the components of a job arrive in one form
		transforms += j.comps * j.level
	}
	ks.rec.Add(obs.CounterNTT, uint64(transforms))
}

// modDownPLimb is the ModDowns' P-limb step as a phase of its own, one task
// per (side, P limb), for a job whose digit phase did not fold it: the P part
// of each accumulator goes to coefficients and is scaled for the P→Q
// extension.
func (ks *KeySwitcher) modDownPLimb(sc *Scratch, t int) {
	side, k := 0, t
	if nP := len(ks.params.P); t >= nP {
		side, k = 1, t-nP
	}
	ks.modDown.ScaleLimb(k, sc.acc[side].Limbs[ks.params.MaxLevel()+k], sc.md[side])
}

// modDownQLimb is the last phase, one task per (side, Q limb): extend the P
// part into the limb, subtract, multiply by P⁻¹, into the job's output — or
// onto it, after writing σ(c0) there for a rotation's b side.
func (ks *KeySwitcher) modDownQLimb(sc *Scratch, t int) {
	j := &sc.job
	side, i := sc.pairLimb(t)
	if side == 0 && j.c0.Limbs != nil {
		ks.params.QBasis.Rings[i].AutomorphismNTT(j.c0.Limbs[i], j.perm, j.out[0].Limbs[i])
	}
	ks.modDown.FinishLimb(i, sc.acc[side].Limbs[i], j.out[side].Limbs[i], j.coeff, j.add[side], sc.md[side])
}

// overwrite and accumulate are the two uniform ModDown modes of a pair: write
// the results, or add them to the polynomials they update.
var overwrite, accumulate = [2]bool{}, [2]bool{true, true}

// modDownPair divides both accumulators by P into (outB, outA), at the job's
// level, in NTT representation or — with coeff set, via the linear ModDown
// variant that is bit-identical to INTT of the NTT form — directly in
// coefficient representation; add[s] adds side s's result to its output (in
// the output's form) instead, in the same last pass. The P limbs are scaled
// here only if the digit phase did not do it (foldP). Either form costs |P|
// inverse transforms for the P part plus one transform per Q limb on each
// side; rns has no recorder, so they are counted here.
func (ks *KeySwitcher) modDownPair(outB, outA rns.Poly, coeff bool, add [2]bool, sc *Scratch) {
	j := &sc.job
	j.out, j.coeff, j.add = [2]rns.Poly{outB, outA}, coeff, add
	nP := len(ks.params.P)
	if !j.foldP {
		ks.run(sc, 2*nP, (*KeySwitcher).modDownPLimb)
	}
	ks.run(sc, 2*j.level, (*KeySwitcher).modDownQLimb)
	ks.rec.Add(obs.CounterNTT, uint64(2*(nP+j.level)))
}

// SwitchPolyInto applies the gadget ciphertext gct to the polynomial c (NTT,
// level limbs): it writes (d0, d1) ≈ (c·msg "b side", c·msg "a side") after
// ModDown — the core of every key switch — into the caller-owned d0, d1
// (level limbs each) using the scratch arena; steady-state it allocates
// nothing. For a key-switching key encrypting s_from under s_to, feeding
// c = c1 yields d0 + d1·s_to ≈ c1·s_from.
func (ks *KeySwitcher) SwitchPolyInto(c rns.Poly, gct *GadgetCiphertext, d0, d1 rns.Poly, sc *Scratch) {
	ks.switchPoly(c, true, gct, d0, d1, overwrite, sc)
}

// switchPoly is the key switch in either domain: input and outputs share it.
// add[s] adds d_s onto the polynomial given for it instead of writing it.
func (ks *KeySwitcher) switchPoly(c rns.Poly, isNTT bool, gct *GadgetCiphertext, d0, d1 rns.Poly, add [2]bool, sc *Scratch) {
	sc.begin(c.Level(), 1)
	sc.setInput(0, c, isNTT, gct, nil)
	ks.keySwitch(d0, d1, !isNTT, add, sc)
}

// keySwitch runs the job's key switch once its input is set: the gadget
// product, then both ModDowns.
func (ks *KeySwitcher) keySwitch(d0, d1 rns.Poly, coeff bool, add [2]bool, sc *Scratch) {
	ks.rec.Add(obs.CounterKeySwitch, 1)
	ks.gadgetProduct(sc, (*KeySwitcher).digitLimb)
	ks.modDownPair(d0, d1, coeff, add, sc)
}

// Relinearize reduces a degree-2 ciphertext (c0, c1, c2) to degree 1 in
// place, using the relinearization key (a gadget encryption of s²): the
// key-switched c2 is added into c0 and c1 by the ModDowns themselves.
func (ks *KeySwitcher) Relinearize(c0, c1, c2 rns.Poly, rlk *GadgetCiphertext) {
	sc := ks.getScratch()
	ks.switchPoly(c2, true, rlk, c0, c1, accumulate, sc)
	ks.putScratch(sc)
}

// Automorphism applies X→X^g to ct (NTT form) and key-switches back to the
// original secret using gk (a gadget encryption of σ_g(s)).
func (ks *KeySwitcher) Automorphism(ct *Ciphertext, g uint64, gk *GadgetCiphertext) *Ciphertext {
	out := NewCiphertext(ks.params, ct.Level())
	sc := ks.getScratch()
	ks.AutomorphismInto(out, ct, g, gk, sc)
	ks.putScratch(sc)
	return out
}

// AutomorphismInto is Automorphism writing into the caller-owned out
// ciphertext (same level as ct; must not alias it) using the scratch arena.
// This is the allocation-free form of the rotation kernel, in the three
// phases of a key switch: the input phase permutes each C1 limb into the
// arena on its way to coefficients, and the b-side ModDown writes σ(C0)'s
// limb into out.C0 and adds onto it. The words are those of permuting both
// components first and key-switching σ(C1), and the output is in NTT
// representation.
func (ks *KeySwitcher) AutomorphismInto(out, ct *Ciphertext, g uint64, gk *GadgetCiphertext, sc *Scratch) {
	j := sc.begin(ct.Level(), 1)
	sc.setInput(0, ct.C1, true, gk, nil)
	j.perm, j.c0 = ks.EnsurePerm(g), ct.C0
	ks.keySwitch(out.C0, out.C1, false, [2]bool{true, false}, sc)
	out.IsNTT = true
	out.Scale = ct.Scale
}

// MulRelinRescale returns the product of a and b (NTT form) at their common
// level, relinearized with rlk and rescaled by that level's last modulus: the
// words of the tensor, then Relinearize, then DivRoundByLastModulus, with the
// rescale merged into the relinearization's ModDowns (rns.ModDown.RescaleLimb),
// so that no limb is transformed twice. It runs in four phases: the input
// phase forms the tensor's limbs beside bringing the degree-2 part to
// coefficients, the digit phase lifts the last Q limb once its MAC is done,
// one task per side centres that limb, and one per (side, limb below it)
// writes the output. The output has the product's scale (the caller divides
// it) and is the only allocation.
func (ks *KeySwitcher) MulRelinRescale(a, b *Ciphertext, rlk *GadgetCiphertext) *Ciphertext {
	level := min(a.Level(), b.Level())
	if level < 2 {
		panic("rlwe: cannot rescale a single-limb product")
	}
	out := NewCiphertext(ks.params, level-1)
	sc := ks.getScratch()
	j := sc.begin(level, 1)
	sc.setInput(0, sc.c[0].AtLevel(level), false, rlk, nil)
	j.fa, j.fb, j.rescale = a, b, true
	j.prod = [2]rns.Poly{sc.t[0].AtLevel(level), sc.t[1].AtLevel(level)}
	j.out = [2]rns.Poly{out.C0, out.C1}
	ks.rec.Add(obs.CounterKeySwitch, 1)
	ks.gadgetProduct(sc, (*KeySwitcher).digitLimb)
	ks.run(sc, 2, (*KeySwitcher).centreLimb)
	ks.run(sc, 2*(level-1), (*KeySwitcher).rescaleLimb)
	ks.rec.Add(obs.CounterNTT, uint64(2*(len(ks.params.P)+level)))
	ks.putScratch(sc)
	out.Scale = a.Scale * b.Scale
	return out
}

// centreLimb is a rescaling multiplication's third phase, one task per side:
// the last Q limb of the ModDown's result, centred.
func (ks *KeySwitcher) centreLimb(sc *Scratch, s int) {
	last := sc.job.level - 1
	ks.modDown.CentreLimb(last, sc.acc[s].Limbs[last], sc.md[s])
}

// rescaleLimb is its last phase, one task per (side, Q limb below the last):
// the output limb.
func (ks *KeySwitcher) rescaleLimb(sc *Scratch, t int) {
	j := &sc.job
	last := j.level - 1
	s, i := t/last, t%last
	ks.modDown.RescaleLimb(i, last, j.prod[s].Limbs[i], sc.acc[s].Limbs[i], j.out[s].Limbs[i], sc.md[s])
}

// Hoisted holds the gadget decomposition of one ciphertext component,
// extended to the full QP basis in NTT representation: the "decompose once"
// half of hoisted rotations. Galois automorphisms act on each digit as a
// pure NTT-slot permutation, so a single decomposition of c1 serves every
// automorphism applied to the same ciphertext — ARK's key-reuse insight
// applied to rotation batches (PAPERS.md). Note the hoisted result is not
// bit-identical to the non-hoisted key switch (the fast basis extension and
// the permutation do not commute exactly); the difference is bounded by the
// usual key-switch noise, which is why the repacking merge tree — whose
// output is locked bit-identical to the serial reference — decomposes every
// node afresh instead.
type Hoisted struct {
	level int
	digs  []rns.Poly // one QP-indexed polynomial per digit
}

// NewHoisted allocates digit buffers sized for the maximum level.
func (ks *KeySwitcher) NewHoisted() *Hoisted {
	h := &Hoisted{digs: make([]rns.Poly, len(ks.digitExt))}
	for d := range h.digs {
		h.digs[d] = ks.params.QPBasis.NewPoly()
	}
	return h
}

// decomposeLimb is digitLimb storing instead of accumulating: every digit of
// the job's one component is raised into limb t of the hoisted decomposition.
// It needs no lane.
func (ks *KeySwitcher) decomposeLimb(sc *Scratch, _, t int) {
	j := &sc.job
	lo, hi := ks.span(sc, t)
	for d := 0; d*ks.alpha < j.level; d++ {
		for u := lo; u < hi; u++ {
			idx := ks.qpLimb(sc, u)
			ks.raiseLimb(sc, 0, d, idx, j.hoisted.digs[d].Limbs[idx])
		}
	}
}

// hoistedLimb is digitLimb reading instead of raising: limb by limb, every
// stored digit is permuted into lane w and the accumulators' limb is written
// by macLimb.
func (ks *KeySwitcher) hoistedLimb(sc *Scratch, w, t int) {
	j := &sc.job
	lane := &sc.lanes[w]
	nd := ks.params.DigitsAtLevel(j.level)
	lo, hi := ks.span(sc, t)
	for u := lo; u < hi; u++ {
		idx := ks.qpLimb(sc, u)
		r := ks.params.QPBasis.Rings[idx]
		for d := 0; d < nd; d++ {
			r.AutomorphismNTT(j.hoisted.digs[d].Limbs[idx], j.perm, lane.digs[d])
		}
		ks.macLimb(sc, lane, idx, nd)
		ks.limbDone(sc, idx)
	}
}

// DecomposeInto fills h with the gadget decomposition of c (NTT form, level
// limbs), extended over the full QP basis.
func (ks *KeySwitcher) DecomposeInto(h *Hoisted, c rns.Poly, sc *Scratch) {
	h.level = c.Level()
	sc.begin(h.level, 1).hoisted = h
	sc.setInput(0, c, true, nil, nil)
	ks.gadgetProduct(sc, (*KeySwitcher).decomposeLimb)
}

// Decompose is DecomposeInto with a freshly allocated Hoisted and pooled
// scratch — decompose c1 once, then apply many Galois keys against it.
func (ks *KeySwitcher) Decompose(c rns.Poly) *Hoisted {
	h := ks.NewHoisted()
	sc := ks.getScratch()
	ks.DecomposeInto(h, c, sc)
	ks.putScratch(sc)
	return h
}

// ApplyGaloisHoistedInto computes out = KeySwitch(σ_g(ct), gk) reusing the
// decomposition h of ct.C1: each stored digit is permuted in the NTT domain
// (σ_g commutes with the RNS digit selection) and MACed against the key rows,
// skipping the per-rotation INTT/decompose/NTT pipeline entirely. ct must be
// the ciphertext h was decomposed from, at the same level; out must not
// alias ct.
func (ks *KeySwitcher) ApplyGaloisHoistedInto(out, ct *Ciphertext, h *Hoisted, g uint64, gk *GadgetCiphertext, sc *Scratch) {
	j := sc.begin(h.level, 1)
	j.hoisted, j.perm, j.c0 = h, ks.EnsurePerm(g), ct.C0
	j.key, j.key2 = [2]*GadgetCiphertext{gk}, [2]*GadgetCiphertext{}
	ks.rec.Add(obs.CounterKeySwitch, 1)
	ks.ensureLanes(sc)
	ks.runLanes(sc, ks.digitTasks(sc), (*KeySwitcher).hoistedLimb)
	ks.modDownPair(out.C0, out.C1, false, [2]bool{true, false}, sc)
	out.IsNTT = true
	out.Scale = ct.Scale
}

// ApplyGaloisHoisted is the allocating convenience form of
// ApplyGaloisHoistedInto.
func (ks *KeySwitcher) ApplyGaloisHoisted(ct *Ciphertext, h *Hoisted, g uint64, gk *GadgetCiphertext) *Ciphertext {
	out := NewCiphertext(ks.params, h.level)
	sc := ks.getScratch()
	ks.ApplyGaloisHoistedInto(out, ct, h, g, gk, sc)
	ks.putScratch(sc)
	return out
}

// ExternalProductInto computes ct ⊡ rgsw ≈ RLWE(m · phase(ct)) into the
// caller-owned out ciphertext (same level as ct; it may be ct itself, since
// the decomposition has consumed ct before the ModDown writes out): both
// ciphertext components are gadget-decomposed and MACed against the RGSW
// rows — the TFHE kernel at the heart of BlindRotate (§IV-E) — then
// ModDown'd back to Q. All digit decompositions, NTTs, and MAC accumulators
// live in the scratch arena sc, mirroring the paper's on-chip operand
// residency for the rotate→decompose→NTT→MAC schedule, so the call
// allocates nothing. ct may be in either representation; the output is in
// NTT representation. A trivial ciphertext — C1 all zero, which is how every
// blind-rotation accumulator starts — costs half the decomposition: zero
// digits MAC exact zeros, so the C1 half is skipped with the same words out
// (the test is one comparison on anything else: it stops at the first
// non-zero coefficient).
func (ks *KeySwitcher) ExternalProductInto(out, ct *Ciphertext, rgsw *RGSWCiphertext, sc *Scratch) {
	ks.externalProduct(out, ct, rgsw, false, overwrite, sc)
	out.IsNTT = true
	out.Scale = ct.Scale
}

// ExternalProductCoeffAddTo adds ct ⊡ rgsw to acc in coefficient
// representation — the accumulator update ACC += (X^k·ACC − ACC) ⊡ RGSW(s_i)
// of a binary blind-rotation step — with the addition folded into the last
// pass of the ModDowns, so acc is read and written once. The ModDown emits
// coefficients directly, bit-identical to INTT(ExternalProductInto), which
// saves the 2·level inverse transforms of undoing an NTT-domain ModDown, and
// the words are those of that product followed by an Add (onto a zero acc,
// the product's own). ct may be in either representation and may be acc
// itself (the decomposition has consumed it before the ModDowns write); acc
// keeps its scale.
func (ks *KeySwitcher) ExternalProductCoeffAddTo(acc, ct *Ciphertext, rgsw *RGSWCiphertext, sc *Scratch) {
	if acc.IsNTT {
		panic("rlwe: ExternalProductCoeffAddTo accumulates in coefficient representation")
	}
	ks.externalProduct(acc, ct, rgsw, true, accumulate, sc)
}

func (ks *KeySwitcher) externalProduct(out, ct *Ciphertext, rgsw *RGSWCiphertext, coeff bool, add [2]bool, sc *Scratch) {
	ks.decomposeCiphertext(ct, rgsw, nil, sc)
	ks.modDownPair(out.C0, out.C1, coeff, add, sc)
}

// decomposeCiphertext is the gadget product of an external product, counted
// as one: ct's components are decomposed against rgsw into the accumulators
// — and, when second is given, against it too, into the arena's second pair.
// A zero C1 (in either representation) is left out. A two-key product's P
// limbs are scaled by its ModDowns, after the combine.
func (ks *KeySwitcher) decomposeCiphertext(ct *Ciphertext, rgsw, second *RGSWCiphertext, sc *Scratch) {
	j := sc.begin(ct.Level(), 2)
	if ct.C1.IsZero() {
		j.comps = 1
	}
	var k2 [2]*GadgetCiphertext
	if second != nil {
		k2 = [2]*GadgetCiphertext{second.C0, second.C1}
		j.foldP = false // the combine runs between the MACs and the ModDowns
	}
	sc.setInput(0, ct.C0, ct.IsNTT, rgsw.C0, k2[0])
	sc.setInput(1, ct.C1, ct.IsNTT, rgsw.C1, k2[1])
	ks.rec.Add(obs.CounterExternalProduct, 1)
	ks.gadgetProduct(sc, (*KeySwitcher).digitLimb)
}

// ExternalProductTwoKeyCoeffAddTo is the ternary blind-rotation iteration in
// place,
//
//	acc += ((X^k − 1)·acc) ⊡ plus + ((X^{−k} − 1)·acc) ⊡ minus
//
// — the whole of one iteration of Algorithm 1 — from ONE gadget decomposition
// of acc: the monomial factors commute with the decomposition up to
// key-switch noise, so the raised digits of acc as it stands are MACed
// against both keys into two accumulator pairs, the factors are applied to
// the accumulators in the evaluation domain (m⁺ ⊙ acc⁺ + m⁻ ⊙ acc⁻ per QP
// limb, one two-term dot product, the monomial vectors rebuilt per limb into
// scratch), and the pair is ModDown'd once, with the closing addition folded
// into the ModDowns' last pass. That is the transform count of a single
// external product (and it is counted as one) where two sequential CMux steps
// spend two. acc must be in coefficient representation. The result is not
// bit-identical to the two-step form (whose second product sees the first
// one's output), only equal to it up to key-switch noise. Both keys are
// required: a missing one is refused, not read as RGSW(0).
//
// The combine runs inline on the calling goroutine at every width: the arena
// has one pair of monomial vectors, and the only caller is a blind-rotation
// worker, whose arena is width 1.
func (ks *KeySwitcher) ExternalProductTwoKeyCoeffAddTo(acc *Ciphertext, k int, plus, minus *RGSWCiphertext, sc *Scratch) {
	if acc.IsNTT {
		panic("rlwe: two-key external product takes a coefficient-form ciphertext")
	}
	if plus == nil || minus == nil {
		panic("rlwe: two-key external product needs both keys")
	}
	p := ks.params
	sc.ensureTwoKey(p)
	ks.decomposeCiphertext(acc, plus, minus, sc)
	mono := []ring.Poly{sc.monoPlus, sc.monoMinus}
	for t, n := 0, acc.Level()+len(p.P); t < n; t++ {
		idx := ks.qpLimb(sc, t)
		r := p.QPBasis.Rings[idx]
		r.MonomialsMinusOneNTT(k, sc.monoPlus, sc.monoMinus)
		for s := range sc.acc {
			a := sc.acc[s].Limbs[idx]
			r.DotCoeffs([]ring.Poly{a, sc.acc2[s].Limbs[idx]}, mono, a)
		}
	}
	ks.modDownPair(acc.C0, acc.C1, true, accumulate, sc)
}
