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
type KeySwitcher struct {
	params *Parameters
	// extenders[(start<<16)|end] extends the digit window Q[start:end]
	// into the full QP basis.
	extenders map[int]*rns.Extender
	modDown   *rns.ModDown
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

	scratchPool sync.Pool
}

// NewKeySwitcher precomputes all basis-conversion tables for the parameter
// set: one extender per (digit window, window length) pair and the P→Q
// ModDown tables.
func NewKeySwitcher(params *Parameters) *KeySwitcher {
	ks := &KeySwitcher{
		params:    params,
		extenders: make(map[int]*rns.Extender),
		modDown:   rns.NewModDown(params.QBasis, params.PBasis),
		permCache: make(map[uint64][]uint64),
		rec:       obs.Nop{},
	}
	alpha := params.Alpha()
	L := params.MaxLevel()
	for start := 0; start < L; start += alpha {
		maxEnd := start + alpha
		if maxEnd > L {
			maxEnd = L
		}
		for end := start + 1; end <= maxEnd; end++ {
			src := &rns.Basis{Rings: params.QBasis.Rings[start:end], LogN: params.LogN, N: params.N()}
			ks.extenders[start<<16|end] = rns.NewExtender(src, params.QPBasis)
		}
	}
	ks.scratchPool.New = func() any { return ks.NewScratch() }
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

// qpAccumulator is scratch for a key-switch accumulation at a given level:
// level Q limbs followed by all P limbs, in NTT representation.
type qpAccumulator struct {
	q rns.Poly
	p rns.Poly
}

// atLevel returns a view of the accumulator truncated to level Q limbs.
func (a qpAccumulator) atLevel(level int) qpAccumulator {
	return qpAccumulator{q: a.q.AtLevel(level), p: a.p}
}

// Scratch is a per-worker arena holding every intermediate of the
// key-switch/external-product kernel: accumulators, the digit buffer, the
// destination limb table and indices of the gadget decomposition's basis
// extension,
// INTT copies of the input, and the basis-conversion/ModDown scratch. It is
// the software analog of the paper's §VI-B plan of keeping all BlindRotate
// operands resident in on-chip URAM/BRAM: one arena per worker, reused for
// every external product, so the steady-state datapath never allocates.
// A Scratch must not be shared between concurrent calls.
type Scratch struct {
	accB, accA qpAccumulator
	dig        qpAccumulator
	dstLimbs   []ring.Poly
	dstIdx     []int
	c0, c1     rns.Poly
	t0, t1     rns.Poly
	conv       *rns.ExtendScratch
	md         *rns.ModDownScratch

	// The second accumulator pair and the two N-word monomial vectors serve
	// the two-key product of the ternary blind rotation only; ensureTwoKey
	// sizes them on its first call, so every other user's arena stays as
	// small as it was.
	accB2, accA2        qpAccumulator
	monoPlus, monoMinus ring.Poly
}

// NewScratch allocates a scratch arena sized for this key switcher's
// parameter set (all buffers at the maximum level; lower levels use views).
func (ks *KeySwitcher) NewScratch() *Scratch {
	p := ks.params
	nP := len(p.P)
	L := p.MaxLevel()
	newAcc := func() qpAccumulator {
		return qpAccumulator{q: p.QBasis.NewPoly(), p: p.PBasis.NewPoly()}
	}
	return &Scratch{
		accB:     newAcc(),
		accA:     newAcc(),
		dig:      newAcc(),
		dstLimbs: make([]ring.Poly, 0, L+nP),
		dstIdx:   make([]int, 0, L+nP),
		c0:       p.QBasis.NewPoly(),
		c1:       p.QBasis.NewPoly(),
		t0:       p.QBasis.NewPoly(),
		t1:       p.QBasis.NewPoly(),
		conv:     rns.NewExtendScratch(p.Alpha(), p.N()),
		md:       ks.modDown.NewScratch(),
	}
}

// ensureTwoKey allocates the second accumulator pair and the monomial vectors
// on the arena's first two-key product.
func (sc *Scratch) ensureTwoKey(p *Parameters) {
	if sc.monoPlus != nil {
		return
	}
	sc.accB2 = qpAccumulator{q: p.QBasis.NewPoly(), p: p.PBasis.NewPoly()}
	sc.accA2 = qpAccumulator{q: p.QBasis.NewPoly(), p: p.PBasis.NewPoly()}
	sc.monoPlus = make(ring.Poly, p.N())
	sc.monoMinus = make(ring.Poly, p.N())
}

func (ks *KeySwitcher) getScratch() *Scratch   { return ks.scratchPool.Get().(*Scratch) }
func (ks *KeySwitcher) putScratch(sc *Scratch) { ks.scratchPool.Put(sc) }

// decomposeDigit extracts gadget digit j of cCoeff (coefficient
// representation, level limbs, canonical residues) and extends it over the
// level Q limbs plus all P limbs, writing the result into dig in NTT
// representation. dig must be a level view; every limb is fully overwritten.
//
// The limbs inside the digit's own window Q[start:end] are not recomputed:
// the basis extension would form Σ_k y_k·q̂_k mod q_i there, and for a
// window limb i every q̂_k with k ≠ i is ≡ 0 while y_i·q̂_i ≡ x_i, so the
// sum is the input residue itself, bit for bit. They are copied, and only
// the limbs outside the window go through ExtendSelectedWith.
func (ks *KeySwitcher) decomposeDigit(j, level int, cCoeff rns.Poly, dig qpAccumulator, sc *Scratch) {
	p := ks.params
	alpha := p.Alpha()
	start := j * alpha
	end := start + alpha
	if end > level {
		end = level
	}
	src := rns.Poly{Limbs: cCoeff.Limbs[start:end]}

	nP := len(p.P)
	L := p.MaxLevel()
	outside := sc.dstLimbs[:0]
	dstIdx := sc.dstIdx[:0]
	for i := 0; i < level; i++ {
		if i >= start && i < end {
			copy(dig.q.Limbs[i], cCoeff.Limbs[i])
			continue
		}
		outside = append(outside, dig.q.Limbs[i])
		dstIdx = append(dstIdx, i)
	}
	for i := 0; i < nP; i++ {
		outside = append(outside, dig.p.Limbs[i])
		dstIdx = append(dstIdx, L+i)
	}
	ks.extenders[start<<16|end].ExtendSelectedWith(src, rns.Poly{Limbs: outside}, dstIdx, sc.conv)
	p.QBasis.NTT(dig.q)
	p.PBasis.NTT(dig.p)
	ks.rec.Add(obs.CounterNTT, uint64(level+nP))
}

// macRow accumulates acc += dig ⊙ row, where row is a full-QP polynomial and
// dig/acc are (level Q + P) accumulators. With first set it writes
// acc = dig ⊙ row instead, so the first row of a gadget product needs no
// zeroed accumulator (the product is canonical either way, so the sum is
// bit-identical to zero-then-accumulate).
func (ks *KeySwitcher) macRow(acc, dig qpAccumulator, row rns.Poly, level int, first bool) {
	p := ks.params
	L := p.MaxLevel()
	mac := (*ring.Ring).MulCoeffsAndAdd
	if first {
		mac = (*ring.Ring).MulCoeffs
	}
	for i := 0; i < level; i++ {
		mac(p.QBasis.Rings[i], dig.q.Limbs[i], row.Limbs[i], acc.q.Limbs[i])
	}
	for i := 0; i < len(p.P); i++ {
		mac(p.PBasis.Rings[i], dig.p.Limbs[i], row.Limbs[L+i], acc.p.Limbs[i])
	}
}

// gadgetProduct is the decompose→NTT→MAC body shared by every key switch
// and external product: it adds Σ_j digit_j(cCoeff) ⊙ (gct.B[j], gct.A[j])
// to the scratch accumulators at cCoeff's level — or, with first set, starts
// them from the first digit's products. With second non-nil every raised
// digit is MACed against that gadget ciphertext too, into the arena's second
// accumulator pair (ensureTwoKey must have run): one decomposition serves
// both keys.
func (ks *KeySwitcher) gadgetProduct(cCoeff rns.Poly, gct, second *GadgetCiphertext, first bool, sc *Scratch) {
	level := cCoeff.Level()
	accB := sc.accB.atLevel(level)
	accA := sc.accA.atLevel(level)
	dig := sc.dig.atLevel(level)
	for j := 0; j < ks.params.DigitsAtLevel(level); j++ {
		ks.decomposeDigit(j, level, cCoeff, dig, sc)
		start := first && j == 0
		ks.macRow(accB, dig, gct.B[j], level, start)
		ks.macRow(accA, dig, gct.A[j], level, start)
		if second != nil {
			ks.macRow(sc.accB2.atLevel(level), dig, second.B[j], level, start)
			ks.macRow(sc.accA2.atLevel(level), dig, second.A[j], level, start)
		}
	}
}

// modDownInto divides one scratch accumulator (level taken from out) by P
// into out, in NTT representation or — with coeff set, via the linear
// ModDown variant that is bit-identical to INTT of the NTT form — directly
// in coefficient representation. Either form costs |P| inverse transforms
// for the P part plus one transform per Q limb; rns has no recorder, so they
// are counted here.
func (ks *KeySwitcher) modDownInto(acc qpAccumulator, out rns.Poly, coeff bool, sc *Scratch) {
	acc = acc.atLevel(out.Level())
	if coeff {
		ks.modDown.ApplyCoeffWith(acc.q, acc.p, out, sc.md)
	} else {
		ks.modDown.ApplyWith(acc.q, acc.p, out, sc.md)
	}
	ks.rec.Add(obs.CounterNTT, uint64(len(ks.params.P)+out.Level()))
}

// SwitchPolyInto applies the gadget ciphertext gct to the polynomial c (NTT,
// level limbs): it writes (d0, d1) ≈ (c·msg "b side", c·msg "a side") after
// ModDown — the core of every key switch — into the caller-owned d0, d1
// (level limbs each) using the scratch arena; steady-state it allocates
// nothing. For a key-switching key encrypting s_from under s_to, feeding
// c = c1 yields d0 + d1·s_to ≈ c1·s_from.
func (ks *KeySwitcher) SwitchPolyInto(c rns.Poly, gct *GadgetCiphertext, d0, d1 rns.Poly, sc *Scratch) {
	level := c.Level()
	cCoeff := sc.c0.AtLevel(level)
	for i := range cCoeff.Limbs {
		copy(cCoeff.Limbs[i], c.Limbs[i])
	}
	ks.params.QBasis.AtLevel(level).INTT(cCoeff)
	ks.rec.Add(obs.CounterNTT, uint64(level))
	ks.rec.Add(obs.CounterKeySwitch, 1)
	ks.gadgetProduct(cCoeff, gct, nil, true, sc)
	ks.modDownInto(sc.accB, d0, false, sc)
	ks.modDownInto(sc.accA, d1, false, sc)
}

// switchPolyCoeff is SwitchPolyInto with input and both outputs in
// coefficient representation — the repack's key switch: the decomposition
// takes cCoeff as it stands (no copy, no INTT) and each linear ModDown emits
// coefficients, bit-identical to the INTT of SwitchPolyInto's outputs on
// NTT(cCoeff). cCoeff may alias d1 — the decomposition has consumed the
// input before the ModDowns write.
func (ks *KeySwitcher) switchPolyCoeff(cCoeff rns.Poly, gct *GadgetCiphertext, d0, d1 rns.Poly, sc *Scratch) {
	ks.rec.Add(obs.CounterKeySwitch, 1)
	ks.gadgetProduct(cCoeff, gct, nil, true, sc)
	ks.modDownInto(sc.accB, d0, true, sc)
	ks.modDownInto(sc.accA, d1, true, sc)
}

// Relinearize reduces a degree-2 ciphertext (c0, c1, c2) to degree 1 using
// the relinearization key (a gadget encryption of s²).
func (ks *KeySwitcher) Relinearize(c0, c1, c2 rns.Poly, rlk *GadgetCiphertext) (r0, r1 rns.Poly) {
	b := ks.params.QBasis.AtLevel(c0.Level())
	r0, r1 = b.NewPoly(), b.NewPoly()
	sc := ks.getScratch()
	ks.SwitchPolyInto(c2, rlk, r0, r1, sc)
	ks.putScratch(sc)
	b.Add(c0, r0, r0)
	b.Add(c1, r1, r1)
	return r0, r1
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
// This is the allocation-free form of the rotation kernel: the permuted
// components land in sc.t0/sc.t1 and the key-switch reuses the usual
// decompose→MAC→ModDown buffers. The output is in NTT representation and
// bit-identical to Automorphism's.
func (ks *KeySwitcher) AutomorphismInto(out, ct *Ciphertext, g uint64, gk *GadgetCiphertext, sc *Scratch) {
	level := ct.Level()
	b := ks.params.QBasis.AtLevel(level)
	perm := ks.EnsurePerm(g)
	t0 := sc.t0.AtLevel(level)
	t1 := sc.t1.AtLevel(level)
	b.AutomorphismNTT(ct.C0, perm, t0)
	b.AutomorphismNTT(ct.C1, perm, t1)
	ks.SwitchPolyInto(t1, gk, out.C0, out.C1, sc)
	b.Add(t0, out.C0, out.C0)
	out.IsNTT = true
	out.Scale = ct.Scale
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
	digs  []qpAccumulator
}

// Level reports the level the decomposition was taken at.
func (h *Hoisted) Level() int { return h.level }

// NewHoisted allocates digit buffers sized for the maximum level.
func (ks *KeySwitcher) NewHoisted() *Hoisted {
	p := ks.params
	L := p.MaxLevel()
	h := &Hoisted{digs: make([]qpAccumulator, p.DigitsAtLevel(L))}
	for j := range h.digs {
		h.digs[j] = qpAccumulator{q: p.QBasis.NewPoly(), p: p.PBasis.NewPoly()}
	}
	return h
}

// DecomposeInto fills h with the gadget decomposition of c (NTT form, level
// limbs), extended over the full QP basis.
func (ks *KeySwitcher) DecomposeInto(h *Hoisted, c rns.Poly, sc *Scratch) {
	level := c.Level()
	h.level = level
	cCoeff := sc.c0.AtLevel(level)
	for i := range cCoeff.Limbs {
		copy(cCoeff.Limbs[i], c.Limbs[i])
	}
	ks.params.QBasis.AtLevel(level).INTT(cCoeff)
	ks.rec.Add(obs.CounterNTT, uint64(level))
	for j := 0; j < ks.params.DigitsAtLevel(level); j++ {
		ks.decomposeDigit(j, level, cCoeff, h.digs[j].atLevel(level), sc)
	}
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
	level := h.level
	p := ks.params
	b := p.QBasis.AtLevel(level)
	perm := ks.EnsurePerm(g)
	nP := len(p.P)
	accB := sc.accB.atLevel(level)
	accA := sc.accA.atLevel(level)
	ks.rec.Add(obs.CounterKeySwitch, 1)
	dig := sc.dig.atLevel(level)
	for j := 0; j < p.DigitsAtLevel(level); j++ {
		for i := 0; i < level; i++ {
			p.QBasis.Rings[i].AutomorphismNTT(h.digs[j].q.Limbs[i], perm, dig.q.Limbs[i])
		}
		for i := 0; i < nP; i++ {
			p.PBasis.Rings[i].AutomorphismNTT(h.digs[j].p.Limbs[i], perm, dig.p.Limbs[i])
		}
		ks.macRow(accB, dig, gk.B[j], level, j == 0)
		ks.macRow(accA, dig, gk.A[j], level, j == 0)
	}
	ks.modDownInto(accB, out.C0, false, sc)
	ks.modDownInto(accA, out.C1, false, sc)
	t0 := sc.t0.AtLevel(level)
	b.AutomorphismNTT(ct.C0, perm, t0)
	b.Add(t0, out.C0, out.C0)
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
	ks.externalProduct(out, ct, rgsw, false, sc)
}

// ExternalProductCoeffInto is ExternalProductInto with the output in
// coefficient representation, bit-identical to INTT(ExternalProductInto):
// the ModDown emits coefficients directly, which saves the 2·level inverse
// transforms a caller that wants coefficients — the blind-rotation
// accumulator update — would otherwise spend undoing the NTT-domain ModDown.
func (ks *KeySwitcher) ExternalProductCoeffInto(out, ct *Ciphertext, rgsw *RGSWCiphertext, sc *Scratch) {
	ks.externalProduct(out, ct, rgsw, true, sc)
}

func (ks *KeySwitcher) externalProduct(out, ct *Ciphertext, rgsw *RGSWCiphertext, coeff bool, sc *Scratch) {
	level := ct.Level()
	c0Coeff, c1Coeff := ct.C0, ct.C1
	if ct.IsNTT {
		c0Coeff, c1Coeff = sc.c0.AtLevel(level), sc.c1.AtLevel(level)
		for i := 0; i < level; i++ {
			copy(c0Coeff.Limbs[i], ct.C0.Limbs[i])
			copy(c1Coeff.Limbs[i], ct.C1.Limbs[i])
		}
		ks.params.QBasis.INTT(c0Coeff)
		ks.params.QBasis.INTT(c1Coeff)
		ks.rec.Add(obs.CounterNTT, uint64(2*level))
	}
	ks.rec.Add(obs.CounterExternalProduct, 1)
	ks.gadgetProduct(c0Coeff, rgsw.C0, nil, true, sc)
	if !c1Coeff.IsZero() {
		ks.gadgetProduct(c1Coeff, rgsw.C1, nil, false, sc)
	}
	ks.modDownInto(sc.accB, out.C0, coeff, sc)
	ks.modDownInto(sc.accA, out.C1, coeff, sc)
	out.IsNTT = !coeff
	out.Scale = ct.Scale
}

// ExternalProductTwoKeyCoeffInto computes
//
//	out = ((X^k − 1)·ct) ⊡ plus + ((X^{−k} − 1)·ct) ⊡ minus
//
// — the whole non-identity part of one ternary blind-rotation iteration
// (Algorithm 1) — from ONE gadget decomposition of ct: the monomial factors
// commute with the decomposition up to key-switch noise, so the raised digits
// of ct as it stands are MACed against both keys into two accumulator pairs,
// the factors are applied to the accumulators in the evaluation domain
// (acc ← m⁺ ⊙ acc⁺ + m⁻ ⊙ acc⁻ per QP limb, the monomial vectors rebuilt per
// limb into scratch), and the pair is ModDown'd once. That is the transform
// count of a single external product (and it is counted as one) where two
// sequential CMux steps spend two. ct must be in coefficient representation
// and out is written in it. out must NOT alias ct: the iteration is completed
// by ct + out, so the caller still needs ct when this returns (the in-place
// form ExternalProductCoeffInto allows has no use here). The result is not
// bit-identical to the two-step form (whose second product sees the first
// one's output), only equal to it up to key-switch noise.
func (ks *KeySwitcher) ExternalProductTwoKeyCoeffInto(out, ct *Ciphertext, k int, plus, minus *RGSWCiphertext, sc *Scratch) {
	if ct.IsNTT {
		panic("rlwe: two-key external product takes a coefficient-form ciphertext")
	}
	p := ks.params
	level := ct.Level()
	sc.ensureTwoKey(p)
	ks.rec.Add(obs.CounterExternalProduct, 1)
	ks.gadgetProduct(ct.C0, plus.C0, minus.C0, true, sc)
	if !ct.C1.IsZero() {
		ks.gadgetProduct(ct.C1, plus.C1, minus.C1, false, sc)
	}
	combine := func(r *ring.Ring, b, b2, a, a2 ring.Poly) {
		r.MonomialsMinusOneNTT(k, sc.monoPlus, sc.monoMinus)
		r.MulCoeffs(b, sc.monoPlus, b)
		r.MulCoeffsAndAdd(b2, sc.monoMinus, b)
		r.MulCoeffs(a, sc.monoPlus, a)
		r.MulCoeffsAndAdd(a2, sc.monoMinus, a)
	}
	for i := 0; i < level; i++ {
		combine(p.QBasis.Rings[i], sc.accB.q.Limbs[i], sc.accB2.q.Limbs[i], sc.accA.q.Limbs[i], sc.accA2.q.Limbs[i])
	}
	for i := range p.P {
		combine(p.PBasis.Rings[i], sc.accB.p.Limbs[i], sc.accB2.p.Limbs[i], sc.accA.p.Limbs[i], sc.accA2.p.Limbs[i])
	}
	ks.modDownInto(sc.accB, out.C0, true, sc)
	ks.modDownInto(sc.accA, out.C1, true, sc)
	out.IsNTT = false
	out.Scale = ct.Scale
}
