package ring

import "math/bits"

// NTT transforms p in place from coefficient to evaluation (NTT)
// representation; it is NTTInto(p, p).
func (r *Ring) NTT(p Poly) { r.NTTInto(p, p) }

// NTTInto writes the NTT of src into dst using the negacyclic Cooley-Tukey
// decimation-in-time pass with precomputed, bit-reversed twiddle tables —
// the "read twiddles from memory" mode of the paper's NTT datapath (§IV-D).
// dst may be src; otherwise the two must not overlap, and src is left as it
// was. Input and output are canonical.
//
// When the vector path is active and the ring passes fmaFits (see simd.go),
// every stage runs on an FMA kernel, mostly two per pass (see nttFMA), and
// the first pass reads src while it converts, so an out-of-place transform
// costs no copy. Otherwise src is copied into dst and the scalar driver
// transforms it in place with Shoup fixed-operand butterflies and Harvey's
// lazy reduction: coefficients ride in [0, 4q) through the passes (q < 2^61,
// so 4q fits a word) and are reduced canonically in the last stage. The two
// routes emit the same words: both end on the canonical residue of the same
// transform.
//
// The scalar and vector passes are separate driver functions on purpose:
// a CALL to an assembly kernel anywhere in a function — even on a branch
// never taken — forces the Go register allocator to keep the scalar loop
// state in spill slots, which measured ~1.5× on the pure-scalar transform.
// The scalar driver therefore contains no assembly calls at all, and the
// vector driver pays the (amortized, per-pass) call overhead knowingly.
func (r *Ring) NTTInto(dst, src Poly) {
	if r.vecNTT() {
		r.nttFMA(dst, src, r.psiTable, r.fma.psiQ, nil)
		return
	}
	copyPoly(dst[:r.N], src[:r.N])
	r.nttScalar(dst, r.psiTable, r.psiTableShoup)
}

// copyPoly copies src into dst unless they are the same words.
func copyPoly(dst, src Poly) {
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
}

func (r *Ring) nttScalar(p Poly, psi, psiShoup []uint64) {
	q := r.Mod.Q
	twoQ := 2 * q
	n := r.N
	p = p[:n]
	t := n
	for m := 1; m < n>>1; m <<= 1 {
		t >>= 1
		for i := 0; i < m; i++ {
			w := psi[m+i]
			wS := psiShoup[m+i]
			j1 := 2 * i * t
			a := p[j1 : j1+t]
			b := p[j1+t : j1+2*t]
			b = b[:len(a)] // bounds-check elimination for b[j]
			for j := range a {
				// u ∈ [0, 4q) → [0, 2q); v ← lazy Shoup ∈ [0, 2q).
				u := a[j]
				if u >= twoQ {
					u -= twoQ
				}
				v := b[j]
				hi, _ := bits.Mul64(v, wS)
				v = v*w - hi*q
				a[j] = u + v        // < 4q
				b[j] = u + twoQ - v // < 4q
			}
		}
	}
	nttFwdLastScalar(p, psi, psiShoup, q)
}

// vecMinN is the smallest ring degree the vector drivers accept: the t=1 and
// t=2 edge kernels consume two 4-lane registers (eight coefficients) per step.
const vecMinN = 8

// vecNTT reports whether this ring's transforms take the FMA drivers: the
// vector kernels are selected and the ring has FMA twiddles (it is at least
// vecMinN and fmaFits accepts it).
func (r *Ring) vecNTT() bool { return r.fma != nil && simdActive() }

// nttFMA is the forward transform on the FMA kernels, in passes of two
// stages where it can: the first pass reads src's words (stage 1), an odd
// number of generic stages (t ≥ 4) starts with a one-stage pass, the rest run
// two per pass, and the tail pass runs the t=2 and t=1 stages and writes
// dst's canonical words. Between passes dst holds exact integer-valued
// doubles; visit, when not nil, sees them after each pass but the last, with
// the number of stages run so far (the bound tests' hook).
func (r *Ring) nttFMA(dst, src Poly, psi []uint64, psiQ []float64, visit func(stage int, p Poly)) {
	q := r.Mod.fmaQ
	n := r.N
	dst, src = dst[:n], src[:n]
	fmaFwdFirst(dst, src, float64(psi[1]), psiQ[1], q)
	stage := 1
	if visit != nil {
		visit(stage, dst)
	}
	m, t := 2, n>>2
	if (r.LogN-3)&1 == 1 {
		fmaFwdStep(dst, psi, psiQ, m, t, q)
		m, t = m<<1, t>>1
		if stage++; visit != nil {
			visit(stage, dst)
		}
	}
	for ; t >= 8; m, t = m<<2, t>>2 {
		fmaFwdStep2(dst, psi, psiQ, m, t, q)
		if stage += 2; visit != nil {
			visit(stage, dst)
		}
	}
	fmaFwdTail(dst, psi, psiQ, q, r.Mod.fmaQInv)
}

// nttFwdLastScalar is the last stage (t=1, m=n/2) of the scalar driver,
// open-coded: pairs are adjacent, so direct indexing replaces n/2
// one-element subslice loops, and the canonical sweep is fused into the
// butterfly instead of running as an extra pass over the polynomial.
// Arithmetic and reduction order are exactly those of the generic stage
// followed by the sweep — bit-identical output.
func nttFwdLastScalar(p Poly, psi, psiShoup []uint64, q uint64) {
	twoQ := 2 * q
	n := len(p)
	if n == 1 {
		c := p[0]
		if c >= twoQ {
			c -= twoQ
		}
		if c >= q {
			c -= q
		}
		p[0] = c
		return
	}
	m := n >> 1
	for i := 0; i < m; i++ {
		w := psi[m+i]
		wS := psiShoup[m+i]
		u := p[2*i]
		if u >= twoQ {
			u -= twoQ
		}
		v := p[2*i+1]
		hi, _ := bits.Mul64(v, wS)
		v = v*w - hi*q
		x := u + v // < 4q
		if x >= twoQ {
			x -= twoQ
		}
		if x >= q {
			x -= q
		}
		y := u + twoQ - v // < 4q
		if y >= twoQ {
			y -= twoQ
		}
		if y >= q {
			y -= q
		}
		p[2*i] = x
		p[2*i+1] = y
	}
}

// INTT transforms p in place from evaluation back to coefficient
// representation; it is INTTInto(p, p).
func (r *Ring) INTT(p Poly) { r.INTTInto(p, p) }

// INTTInto writes the inverse NTT of src into dst (Gentleman-Sande
// decimation-in-frequency pass), including the multiplication by N^{-1}.
// dst may be src; otherwise the two must not overlap, and src is left as it
// was. Driver split mirrors NTTInto: the FMA driver reads src in its first
// stage and folds N^{-1} into its last; the scalar driver transforms a copy
// in place with coefficients in [0, 2q) between passes and finishes with an
// N^{-1} sweep that also reduces canonically.
func (r *Ring) INTTInto(dst, src Poly) {
	if r.vecNTT() {
		r.inttFMA(dst, src, nil)
		return
	}
	copyPoly(dst[:r.N], src[:r.N])
	r.inttScalar(dst)
	mulShoupScalar(dst[:r.N], dst, r.Mod.Q, r.nInv, r.nInvShoup)
}

// INTTScaleInto writes INTT(src)·c mod q into dst for any c (reduced first):
// INTTInto followed by MulScalar, word for word, with the multiplication by c
// folded into the one by N⁻¹ that closes every inverse transform, so it costs
// no pass of its own. dst may be src, as for INTTInto.
func (r *Ring) INTTScaleInto(dst, src Poly, c uint64) {
	c = r.Mod.Reduce(c)
	nInv := r.Mod.MulMod(r.nInv, c)
	if r.vecNTT() {
		q := r.Mod.fmaQ
		nInvW := float64(r.Mod.MulMod(r.psiInvTable[1], nInv)) // w·N⁻¹·c
		r.inttFMAScaled(dst, src, float64(nInv), float64(nInv)/q, nInvW, nInvW/q, nil)
		return
	}
	copyPoly(dst[:r.N], src[:r.N])
	r.inttScalar(dst)
	mulShoupScalar(dst[:r.N], dst, r.Mod.Q, nInv, r.Mod.ShoupPrecomp(nInv))
}

// inttScalar runs every butterfly stage of the scalar inverse transform in
// place, leaving coefficients in [0, 2q): the caller's N⁻¹ sweep (times any
// constant it folds in) finishes the transform and reduces canonically.
func (r *Ring) inttScalar(p Poly) {
	q := r.Mod.Q
	twoQ := 2 * q
	n := r.N
	psiInv := r.psiInvTable
	psiInvShoup := r.psiInvTableShoup
	p = p[:n]
	t := 1
	if n >= 2 {
		// First stage (t=1, h=n/2), open-coded with direct indexing for the
		// same reason as the forward transform's last stage: the pairs are
		// adjacent and a one-element subslice loop per butterfly costs more
		// than the butterfly.
		h := n >> 1
		for i := 0; i < h; i++ {
			w := psiInv[h+i]
			wS := psiInvShoup[h+i]
			u := p[2*i]
			v := p[2*i+1]
			c := u + v // < 4q
			if c >= twoQ {
				c -= twoQ
			}
			p[2*i] = c
			d := u + twoQ - v // < 4q
			hi, _ := bits.Mul64(d, wS)
			p[2*i+1] = d*w - hi*q // lazy Shoup ∈ [0, 2q)
		}
		t = 2
	}
	for m := n >> 1; m > 1; m >>= 1 {
		h := m >> 1
		j1 := 0
		for i := 0; i < h; i++ {
			w := psiInv[h+i]
			wS := psiInvShoup[h+i]
			a := p[j1 : j1+t]
			b := p[j1+t : j1+2*t]
			b = b[:len(a)]
			for j := range a {
				u := a[j]
				v := b[j]
				c := u + v // < 4q
				if c >= twoQ {
					c -= twoQ
				}
				a[j] = c
				d := u + twoQ - v // < 4q
				hi, _ := bits.Mul64(d, wS)
				b[j] = d*w - hi*q // lazy Shoup ∈ [0, 2q)
			}
			j1 += 2 * t
		}
		t <<= 1
	}
}

// inttFMA is the inverse transform on the FMA kernels (see INTTInto), the
// mirror of nttFMA: the head pass reads src's words and runs the t=1 and t=2
// stages, the generic stages run two per pass, an odd one out runs last on its
// own, and the t=n/2 stage multiplies by N^{-1} and writes dst's canonical
// words. visit is nttFMA's hook.
func (r *Ring) inttFMA(dst, src Poly, visit func(stage int, p Poly)) {
	f := r.fma
	r.inttFMAScaled(dst, src, f.nInv, f.nInvQ, f.nInvW, f.nInvWQ, visit)
}

// inttFMAScaled is inttFMA with the last stage's operands given: N⁻¹ and
// w·N⁻¹, each possibly times a constant, with their /q.
func (r *Ring) inttFMAScaled(dst, src Poly, n1, n1q, wn, wnq float64, visit func(stage int, p Poly)) {
	f := r.fma
	q, qInv := r.Mod.fmaQ, r.Mod.fmaQInv
	n := r.N
	dst, src = dst[:n], src[:n]
	fmaInvHead(dst, r.psiInvTable, f.psiInvQ, q, src)
	stage := 2
	if visit != nil {
		visit(stage, dst)
	}
	h, t := n>>3, 4
	for ; h >= 4; h, t = h>>2, t<<2 {
		fmaInvStep2(dst, r.psiInvTable, f.psiInvQ, h, t, q, qInv)
		if stage += 2; visit != nil {
			visit(stage, dst)
		}
	}
	if h == 2 {
		fmaInvStep(dst, r.psiInvTable, f.psiInvQ, h, t, q, qInv)
		if stage++; visit != nil {
			visit(stage, dst)
		}
	}
	fmaInvLast(dst, n1, n1q, wn, wnq, q)
}

// NTTOnTheFly performs the forward NTT while generating the twiddle factors
// arithmetically instead of reading precomputed tables — the alternative
// datapath mode of §IV-D ("on-the-fly twiddle factor generation ... when the
// on-chip memory is not sufficient"). Functionally identical to NTT; the
// twiddles are derived per call into scratch storage, trading multiplications
// for table reads. Exposed so the design choice can be benchmarked.
func (r *Ring) NTTOnTheFly(p Poly) {
	r.NTTOnTheFlyWith(p, NewTwiddleScratch(r.N))
}

// TwiddleScratch holds the per-call twiddle buffers of the on-the-fly NTT
// mode, so a worker that keeps one around pays no allocation per transform —
// the software analog of the datapath reusing one on-chip twiddle buffer.
// The words feed both drivers, with their Shoup companions the scalar one
// and with w/q the FMA one.
type TwiddleScratch struct {
	psi, psiShoup []uint64
	psiQ          []float64
}

// NewTwiddleScratch allocates twiddle buffers for ring degree n.
func NewTwiddleScratch(n int) *TwiddleScratch {
	return &TwiddleScratch{
		psi: make([]uint64, n), psiShoup: make([]uint64, n), psiQ: make([]float64, n),
	}
}

// NTTOnTheFlyWith is NTTOnTheFly with caller-owned twiddle scratch; it is
// allocation-free when sc is large enough for the ring degree. It takes the
// same driver NTT would, generating the companions that driver reads.
func (r *Ring) NTTOnTheFlyWith(p Poly, sc *TwiddleScratch) {
	n := r.N
	if len(sc.psi) < n {
		*sc = *NewTwiddleScratch(n)
	}
	psi := sc.psi[:n]
	fillTwiddles(r.Mod, r.psi, r.LogN, psi)
	if r.vecNTT() {
		psiQ := sc.psiQ[:n]
		fillFMATwiddles(psi, r.Mod.fmaQ, psiQ)
		r.nttFMA(p, p, psi, psiQ, nil)
		return
	}
	psiShoup := sc.psiShoup[:n]
	for i := range psi {
		psiShoup[i] = r.Mod.ShoupPrecomp(psi[i])
	}
	r.nttScalar(p, psi, psiShoup)
}
