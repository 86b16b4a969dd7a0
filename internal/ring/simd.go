package ring

// SIMD dispatch. The coefficient sweeps that dominate the CPU profile — the
// Harvey lazy-reduction NTT/INTT butterfly stages, the fixed-shift Barrett
// MAC, and the Shoup fixed-operand scalar sweeps — each exist in two
// bit-identical forms: the portable scalar loops (the universal fallback,
// always compiled, selected on non-amd64 targets, under the `purego` build
// tag, on hosts without AVX2, or by an explicit override) and hand-written
// AVX2 assembly processing four 64-bit lanes per step. Selection happens
// once at package init (a CPUID/XGETBV probe plus the HEAP_NOSIMD
// environment variable, which works for every binary and for `go test`, so a
// production regression can be bisected to the kernel set without
// rebuilding); SetSIMD changes it at runtime, for tests that compare the two
// paths.
//
// The vector paths are required to be bit-identical to the scalar ones —
// not merely congruent modulo q. The Harvey lazy bounds (operands in
// [0, 4q), q < 2^61, every intermediate below 2^63 so signed 64-bit lane
// compares are exact) and the ≤2-correction fixed-shift Barrett argument
// carry over lane-wise; see DESIGN.md "Vectorized kernels" for the bound
// accounting and internal/ring/simd_test.go + FuzzVectorVsScalarKernels for
// the byte-for-byte equivalence locks.

// SIMDLevel reports the ISA level the ring kernels currently dispatch to:
// "avx2" when the vector paths are active, "none" when every kernel runs
// the portable scalar loops.
func SIMDLevel() string {
	if simdActive() {
		return "avx2"
	}
	return "none"
}
