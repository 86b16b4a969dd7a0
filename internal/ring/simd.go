package ring

// SIMD dispatch. The coefficient sweeps that dominate the CPU profile — the
// NTT/INTT butterfly stages, the Hadamard MAC, the fixed-operand scalar
// sweeps and the LWE key switch's digit MAC — each exist in two forms that
// emit the same words: the portable scalar loops (the universal fallback,
// always compiled, selected on non-amd64 targets, under the `purego` build
// tag, on hosts without AVX2 and FMA, for moduli fmaFits rejects, or by an
// explicit override) and hand-written AVX2 assembly that computes on four
// exact integer-valued doubles per step with fused multiply-adds (the digit
// MAC, on four uint64 lanes). Selection happens once at
// package init (a CPUID/XGETBV probe plus the HEAP_NOSIMD environment
// variable, which works for every binary and for `go test`, so a production
// regression can be bisected to the kernel set without rebuilding) and per
// modulus when it is built (fmaFits); SetSIMD changes the first at runtime,
// for tests that compare the two paths.
//
// The contract is the same canonical words out of every exported kernel,
// not the same intermediate representatives: the FMA kernels carry signed
// lazy values the scalar loops never see, and every kernel reduces to the
// canonical residue at its boundary. See DESIGN.md "Vectorized kernels" for
// the bound proof and internal/ring/simd_test.go + FuzzVectorVsScalarKernels
// for the word-for-word equivalence locks.

// SIMDLevel reports the ISA level the ring kernels currently dispatch to:
// "avx2+fma" when the vector paths are active, "none" when every kernel runs
// the portable scalar loops. A modulus at or above the FMA bound runs its
// multiply kernels on the scalar loops either way.
func SIMDLevel() string {
	if simdActive() {
		return "avx2+fma"
	}
	return "none"
}

// The FMA kernels' bound: a modulus below fmaMaxQ, in a ring of degree at
// most 2^fmaMaxLogN, keeps every intermediate of every kernel an exact
// integer below 2^51 in magnitude (DESIGN.md "Vectorized kernels" has the
// proof: a forward transform's largest coefficient is below 10q there).
const (
	fmaMaxQ    = 1 << 47
	fmaMaxLogN = 16
)

// fmaFits is the one predicate that routes a modulus (logN = 0) or a ring's
// transforms to the FMA kernels; everything it rejects runs the scalar loops.
func fmaFits(q uint64, logN int) bool { return q < fmaMaxQ && logN <= fmaMaxLogN }

// fmaTwiddles are the FMA transforms' companions of a ring's twiddles: w/q
// per twiddle, indexed like the integer tables the kernels read w from, in
// both directions, and the operands of the inverse transform's last stage,
// N⁻¹ and w·N⁻¹ (w the stage's one twiddle) with their /q.
type fmaTwiddles struct {
	psiQ, psiInvQ              []float64
	nInv, nInvQ, nInvW, nInvWQ float64
}

// fillFMATwiddles writes wq[i] = w[i]/q, rounded once.
func fillFMATwiddles(w []uint64, q float64, wq []float64) {
	for i, v := range w {
		wq[i] = float64(v) / q
	}
}

func newFMATwiddles(r *Ring) *fmaTwiddles {
	n := r.N
	q := r.Mod.fmaQ
	f := &fmaTwiddles{psiQ: make([]float64, n), psiInvQ: make([]float64, n)}
	fillFMATwiddles(r.psiTable, q, f.psiQ)
	fillFMATwiddles(r.psiInvTable, q, f.psiInvQ)
	nInvW := r.Mod.MulMod(r.psiInvTable[1], r.nInv)
	f.nInv, f.nInvQ = float64(r.nInv), float64(r.nInv)/q
	f.nInvW, f.nInvWQ = float64(nInvW), float64(nInvW)/q
	return f
}

// vecFMA reports whether this modulus's multiply sweeps take the FMA kernels.
func (m *Modulus) vecFMA() bool { return m.fmaQ != 0 && simdActive() }
