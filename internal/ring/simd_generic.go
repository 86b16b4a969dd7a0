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

func fmaFwdFirst(dst, src []uint64, w, wq, q float64) { unreachableSIMD() }

func fmaFwdStep(p, w []uint64, wq []float64, m, t int, q float64) { unreachableSIMD() }

func fmaFwdStep2(p, w []uint64, wq []float64, m, t int, q float64) { unreachableSIMD() }

func fmaFwdTail(p, w []uint64, wq []float64, q, qinv float64) { unreachableSIMD() }

func fmaInvHead(p, w []uint64, wq []float64, q float64, src []uint64) { unreachableSIMD() }

func fmaInvStep(p, w []uint64, wq []float64, h, t int, q, qinv float64) { unreachableSIMD() }

func fmaInvStep2(p, w []uint64, wq []float64, h, t int, q, qinv float64) { unreachableSIMD() }

func fmaInvLast(p []uint64, n1, n1q, wn, wnq, q float64) { unreachableSIMD() }

func mulCoeffsFMA(out, a, b []uint64, q, qinv float64) { unreachableSIMD() }

func mulCoeffsAndAddFMA(out, a, b []uint64, q, qinv float64) { unreachableSIMD() }

func mulScalarFMA(out, a []uint64, w, wq, q float64) { unreachableSIMD() }

func dotCoeffsFMA(out []uint64, a, b []Poly, add int, q, qinv float64) { unreachableSIMD() }

func dotFixedFMA(out []uint64, a []Poly, w []float64, add int, q, qinv float64) { unreachableSIMD() }

func subMulScalarFMA(out, a, b []uint64, w, wq, q, qinv float64, add int) { unreachableSIMD() }

func addVecAVX2(out, a, b []uint64, q uint64) { unreachableSIMD() }

func subVecAVX2(out, a, b []uint64, q uint64) { unreachableSIMD() }

func negAddVecAVX2(out, a, b []uint64, q uint64) { unreachableSIMD() }

func macDigitOuterAVX2(acc, row, x []uint64, stride int, shift, mask uint64) { unreachableSIMD() }
