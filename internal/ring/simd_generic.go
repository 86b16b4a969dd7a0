//go:build !amd64 || purego

package ring

// Pure-Go lane: non-amd64 targets and `-tags purego` builds compile the
// kernels with simdActive pinned false, so every dispatch branch folds away
// and the scalar loops are the only code path. The assembly stubs below
// exist to satisfy the call sites; they are unreachable (guarded by
// simdActive) and panic loudly if a refactor ever breaks that invariant.

// simdActive reports whether the vector kernels are selected: never, on
// this build.
func simdActive() bool { return false }

// SetSIMD is the runtime toggle for the vector kernel set; without compiled
// vector kernels it always reports false and enabling is a no-op.
func SetSIMD(enable bool) bool { return false }

func unreachableSIMD() {
	panic("ring: vector kernel called on a build without SIMD support")
}

func nttFwdStepAVX2(p []uint64, psi, psiShoup []uint64, q uint64, m, t int) { unreachableSIMD() }

func nttInvStepAVX2(p []uint64, psiInv, psiInvShoup []uint64, q uint64, h, t int) {
	unreachableSIMD()
}

func nttFwdT2AVX2(p []uint64, psi, psiShoup []uint64, q uint64) { unreachableSIMD() }

func nttFwdLastAVX2(p []uint64, psi, psiShoup []uint64, q uint64) { unreachableSIMD() }

func nttInvFirstAVX2(p []uint64, psiInv, psiInvShoup []uint64, q uint64) { unreachableSIMD() }

func nttInvT2AVX2(p []uint64, psiInv, psiInvShoup []uint64, q uint64) { unreachableSIMD() }

func mulCoeffsBarrettAVX2(out, a, b []uint64, q, mu uint64, shift uint) { unreachableSIMD() }

func mulCoeffsAndAddBarrettAVX2(out, a, b []uint64, q, mu uint64, shift uint) { unreachableSIMD() }

func mulScalarShoupAVX2(out, a []uint64, q, c, cShoup uint64) { unreachableSIMD() }

func macShoupAVX2(out, a []uint64, q, w, wShoup uint64) { unreachableSIMD() }

func addVecAVX2(out, a, b []uint64, q uint64) { unreachableSIMD() }

func subVecAVX2(out, a, b []uint64, q uint64) { unreachableSIMD() }
