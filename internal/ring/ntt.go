package ring

import "math/bits"

// NTT transforms p in place from coefficient to evaluation (NTT)
// representation using the negacyclic Cooley-Tukey decimation-in-time pass
// with precomputed, bit-reversed twiddle tables and Shoup fixed-operand
// multiplication — the "read twiddles from memory" mode of the paper's NTT
// datapath (§IV-D).
//
// The butterflies use Harvey's lazy reduction: coefficients ride in [0, 4q)
// through the passes (q < 2^61, so 4q fits a word) and are canonically
// reduced only in a final sweep. The output is bit-identical to an eagerly
// reduced transform — the lazy interval only changes intermediate
// representatives, never the residue.
//
// When the vector path is active (see simd.go) every stage runs on an AVX2
// kernel: the generic stage kernel for block half length t ≥ 4 (t is a power
// of two, so those stages are whole 4-lane groups with no tails) and two
// in-register-interleaving kernels for the t=2 stage and the fused canonical
// t=1 stage. The vector butterflies perform the same operations in the same
// order on the same lazy intervals, so the transform is bit-identical either
// way. Rings below vecMinN coefficients always take the scalar driver.
//
// The scalar and vector passes are separate driver functions on purpose:
// a CALL to an assembly kernel anywhere in a function — even on a branch
// never taken — forces the Go register allocator to keep the scalar loop
// state in spill slots, which measured ~1.5× on the pure-scalar transform.
// The scalar driver therefore contains no assembly calls at all, and the
// vector driver pays the (amortized, per-stage) call overhead knowingly.
func (r *Ring) NTT(p Poly) {
	r.nttWithTables(p, r.psiTable, r.psiTableShoup)
}

func (r *Ring) nttWithTables(p Poly, psi, psiShoup []uint64) {
	if r.vecNTT() {
		r.nttVecWithTables(p, psi, psiShoup)
		return
	}
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

// vecNTT reports whether this ring's Shoup transforms take the vector
// drivers: the vector kernels are selected and the ring is large enough.
func (r *Ring) vecNTT() bool { return simdActive() && r.N >= vecMinN }

// nttVecWithTables is the forward pass with every stage on an AVX2 kernel:
// the generic stage kernel while t ≥ 4, then the t=2 kernel, then the fused
// canonical last stage. Bit-identical to the scalar driver. Requires
// n ≥ vecMinN.
func (r *Ring) nttVecWithTables(p Poly, psi, psiShoup []uint64) {
	q := r.Mod.Q
	n := r.N
	p = p[:n]
	t := n
	for m := 1; m <= n>>3; m <<= 1 {
		t >>= 1
		nttFwdStepAVX2(p, psi, psiShoup, q, m, t)
	}
	nttFwdT2AVX2(p, psi, psiShoup, q)
	nttFwdLastAVX2(p, psi, psiShoup, q)
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
// representation (Gentleman-Sande decimation-in-frequency pass with the same
// lazy-reduction discipline as NTT, coefficients in [0, 2q) between passes),
// including the final multiplication by N^{-1} which also performs the
// canonical reduction. Driver split mirrors NTT: the scalar pass contains no
// assembly calls, the vector pass runs the t=1 and t=2 stages on their
// in-register-interleaving kernels and every later stage on the generic
// stage kernel; the N^{-1} sweep rides the MulScalar Shoup kernel in both.
func (r *Ring) INTT(p Poly) {
	if r.vecNTT() {
		r.inttVec(p)
		return
	}
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
	r.nInvSweep(p)
}

// inttVec is the inverse pass with every stage on an AVX2 kernel (see
// INTT). Requires n ≥ vecMinN.
func (r *Ring) inttVec(p Poly) {
	q := r.Mod.Q
	n := r.N
	psiInv := r.psiInvTable
	psiInvShoup := r.psiInvTableShoup
	p = p[:n]
	nttInvFirstAVX2(p, psiInv, psiInvShoup, q)
	nttInvT2AVX2(p, psiInv, psiInvShoup, q)
	t := 4
	for h := n >> 3; h >= 1; h >>= 1 {
		nttInvStepAVX2(p, psiInv, psiInvShoup, q, h, t)
		t <<= 1
	}
	r.nInvSweep(p)
}

// nInvSweep multiplies every coefficient by N^{-1} (Shoup fixed-operand)
// with canonical output — the final pass of both inverse transforms. It is
// the same kernel as MulScalar's inner loop (correct for any input < 2^63,
// which covers the lazy [0, 2q) coefficients arriving here), so it shares
// the vector dispatch.
func (r *Ring) nInvSweep(p Poly) {
	mulScalarShoupInto(p, p, r.Mod.Q, r.nInv, r.nInvShoup)
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
type TwiddleScratch struct {
	psi, psiShoup []uint64
}

// NewTwiddleScratch allocates twiddle buffers for ring degree n.
func NewTwiddleScratch(n int) *TwiddleScratch {
	return &TwiddleScratch{psi: make([]uint64, n), psiShoup: make([]uint64, n)}
}

// NTTOnTheFlyWith is NTTOnTheFly with caller-owned twiddle scratch; it is
// allocation-free when sc is large enough for the ring degree.
func (r *Ring) NTTOnTheFlyWith(p Poly, sc *TwiddleScratch) {
	n := r.N
	if len(sc.psi) < n {
		sc.psi = make([]uint64, n)
		sc.psiShoup = make([]uint64, n)
	}
	psi := sc.psi[:n]
	psiShoup := sc.psiShoup[:n]
	fillTwiddles(r.Mod, r.psi, r.LogN, psi)
	for i := range psi {
		psiShoup[i] = r.Mod.ShoupPrecomp(psi[i])
	}
	r.nttWithTables(p, psi, psiShoup)
}
