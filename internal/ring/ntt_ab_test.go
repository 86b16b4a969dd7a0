package ring

import (
	"math/bits"
	"math/rand"
	"testing"
)

// This file pins down three code-generation hazards in the scalar NTT code
// with A/B benchmark pairs. The first two are register-allocation findings,
// both measured at ~40-50% on the whole transform (N=2^13, single 36-bit
// modulus):
//
//  1. A CALL to an assembly kernel anywhere in a function — even on a branch
//     never taken — forces the hot scalar loop state into spill slots. The
//     scalar driver must therefore contain no assembly calls; SIMD dispatch
//     happens before entering it.
//
//  2. One extra incoming argument (a `lazy bool` threaded to the last stage)
//     evicts a hot loop value into a spill slot for the entire function,
//     even though the flag is only read after the main stage loop. The
//     scalar driver therefore takes no flags.
//
//  3. A loop-invariant flag tested inside the butterfly (`!lazy && x >= q`)
//     turns each conditional subtraction it guards from a conditional move
//     into a compare-and-jump on the data, mispredicted about half the time
//     on real (uniform) coefficients: ~2.5× on the stage. The last stage is
//     therefore a loop with no flag. This one hid in plain sight for two PRs
//     because a multiplicative-hash benchmark input happens to be
//     predictable; measure it with random input.
//
// BenchmarkABOldInlineNTT is the monolithic pre-split transform kept
// verbatim as the performance reference; BenchmarkABNewScalarNTT is the
// production scalar path (SIMD forced off). The two should stay within
// run-to-run noise of each other; a gap reopening here means one of the
// first two hazards crept back into nttScalar. BenchmarkABLastStageFlag
// is the flagged last stage that the vector driver used to call, kept
// verbatim; BenchmarkABLastStageSplit is the flag-free helper in production.

// nttOldInline is the monolithic forward transform: every stage open-coded
// in one function, no helpers, no flags, no assembly. Reference only.
func nttOldInline(r *Ring, p Poly) {
	q := r.Mod.Q
	twoQ := 2 * q
	n := r.N
	psi := r.psiTable
	psiShoup := r.psiTableShoup
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
			b = b[:len(a)]
			for j := range a {
				u := a[j]
				if u >= twoQ {
					u -= twoQ
				}
				v := b[j]
				hi, _ := bits.Mul64(v, wS)
				v = v*w - hi*q
				a[j] = u + v
				b[j] = u + twoQ - v
			}
		}
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
		x := u + v
		if x >= twoQ {
			x -= twoQ
		}
		if x >= q {
			x -= q
		}
		y := u + twoQ - v
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

func BenchmarkABOldInlineNTT(b *testing.B) {
	r := NewRing(13, 68719230977)
	p := make(Poly, r.N)
	for i := range p {
		p[i] = uint64(i) * 2654435761 % r.Mod.Q
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nttOldInline(r, p)
	}
}

// benchNTT times the production forward transform with the vector kernels
// forced on or off. The transform runs in place on its own output, so every
// call sees fresh, effectively uniform coefficients.
func benchNTT(b *testing.B, vector bool, f func(r *Ring, p Poly)) {
	r := NewRing(13, 68719230977)
	prev := simdActive()
	defer SetSIMD(prev)
	if SetSIMD(vector) != vector {
		b.Skip("vector kernels unavailable on this build/host")
	}
	p := make(Poly, r.N)
	for i := range p {
		p[i] = uint64(i) * 2654435761 % r.Mod.Q
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(r, p)
	}
}

func BenchmarkABNewScalarNTT(b *testing.B) {
	benchNTT(b, false, func(r *Ring, p Poly) { r.NTT(p) })
}

// BenchmarkABVectorNTT, BenchmarkABVectorINTT and the vector MAC are the
// FMA kernels beside their scalar counterparts: with every stage on an
// FMA kernel the transforms must beat the scalar drivers (medians of 15
// alternated rounds at N = 2¹³ on a 2-vCPU Xeon, two stages per pass: ≈ 6.7×
// forward, ≈ 5.4× inverse); a ratio near 1 means a scalar stage or a scalar
// sweep crept back into the vector path.
func BenchmarkABVectorNTT(b *testing.B) {
	benchNTT(b, true, func(r *Ring, p Poly) { r.NTT(p) })
}

func BenchmarkABScalarINTT(b *testing.B) {
	benchNTT(b, false, func(r *Ring, p Poly) { r.INTT(p) })
}

func BenchmarkABVectorINTT(b *testing.B) {
	benchNTT(b, true, func(r *Ring, p Poly) { r.INTT(p) })
}

// benchMAC times one row MAC (MulCoeffsAndAdd, the Barrett scalar loop or
// the FMA kernel) on uniform canonical operands.
func benchMAC(b *testing.B, vector bool) {
	r := NewRing(13, 68719230977)
	s := NewSampler(2)
	x, y, acc := r.NewPoly(), r.NewPoly(), r.NewPoly()
	s.UniformPoly(r, x)
	s.UniformPoly(r, y)
	benchNTT(b, vector, func(r *Ring, _ Poly) { r.MulCoeffsAndAdd(x, y, acc) })
}

func BenchmarkABScalarMAC(b *testing.B) { benchMAC(b, false) }
func BenchmarkABVectorMAC(b *testing.B) { benchMAC(b, true) }

// benchDot times the row MAC of one accumulator limb of a binary CMux at the
// paper's gadget shape — 2 components × 2 digits, four products summed — on
// the vector path, as the multi-pass sweeps computed it (MulCoeffs, then
// three MulCoeffsAndAdd, each a pass over the accumulator) or as one
// dot-product pass (DotCoeffs). The pair is the standing A/B of the fused
// MAC: the dot must stay below the multi-pass sum.
func benchDot(b *testing.B, fused bool) {
	const terms = 4
	r := NewRing(13, 68719230977)
	s := NewSampler(3)
	x, y := make([]Poly, terms), make([]Poly, terms)
	for t := range x {
		x[t], y[t] = r.NewPoly(), r.NewPoly()
		s.UniformPoly(r, x[t])
		s.UniformPoly(r, y[t])
	}
	acc := r.NewPoly()
	benchNTT(b, true, func(r *Ring, _ Poly) {
		if fused {
			r.DotCoeffs(x, y, acc)
			return
		}
		r.MulCoeffs(x[0], y[0], acc)
		for t := 1; t < terms; t++ {
			r.MulCoeffsAndAdd(x[t], y[t], acc)
		}
	})
}

func BenchmarkABMultiPassMAC(b *testing.B) { benchDot(b, false) }
func BenchmarkABDotMAC(b *testing.B)       { benchDot(b, true) }

// nttFwdLastFlag is the fused last forward stage with the lazy/canonical
// choice as an in-loop flag. Reference only.
func nttFwdLastFlag(p Poly, psi, psiShoup []uint64, q uint64, lazy bool) {
	twoQ := 2 * q
	m := len(p) >> 1
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
		x := u + v
		if x >= twoQ {
			x -= twoQ
		}
		if !lazy && x >= q {
			x -= q
		}
		y := u + twoQ - v
		if y >= twoQ {
			y -= twoQ
		}
		if !lazy && y >= q {
			y -= q
		}
		p[2*i] = x
		p[2*i+1] = y
	}
}

// benchLastStage times one last-stage call on uniformly random coefficients
// in [0, 4q). Each call gets the next of 64 different inputs, copied in
// first: replaying one input lets the branch predictor learn its 8192
// outcomes by heart, which hides exactly the hazard this pair guards.
func benchLastStage(b *testing.B, stage func(r *Ring, p Poly)) {
	r := NewRing(13, 68719230977)
	rng := rand.New(rand.NewSource(1))
	srcs := make([]Poly, 64)
	for k := range srcs {
		srcs[k] = make(Poly, r.N)
		for i := range srcs[k] {
			srcs[k][i] = rng.Uint64() % (4 * r.Mod.Q)
		}
	}
	p := make(Poly, r.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(p, srcs[i%len(srcs)])
		stage(r, p)
	}
}

func BenchmarkABLastStageFlag(b *testing.B) {
	benchLastStage(b, func(r *Ring, p Poly) { nttFwdLastFlag(p, r.psiTable, r.psiTableShoup, r.Mod.Q, false) })
}

func BenchmarkABLastStageSplit(b *testing.B) {
	benchLastStage(b, func(r *Ring, p Poly) { nttFwdLastScalar(p, r.psiTable, r.psiTableShoup, r.Mod.Q) })
}
