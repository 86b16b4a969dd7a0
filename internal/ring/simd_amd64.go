//go:build amd64 && !purego

package ring

import (
	"os"
	"sync/atomic"
)

// simdOn gates every vector dispatch point. It is an atomic so a runtime
// toggle (SetSIMD: tests flipping the path under -race) is a plain
// data-race-free load on the hot paths — on amd64 an atomic load is an
// ordinary MOV, so the guard costs one predictable branch per sweep, never
// per coefficient.
var simdOn atomic.Bool

func init() {
	simdOn.Store(cpuSupportsAVX2FMA() && os.Getenv("HEAP_NOSIMD") == "")
}

// simdActive reports whether the vector kernels are selected.
func simdActive() bool { return simdOn.Load() }

// SetSIMD enables or disables the vector kernel set at runtime and reports
// the resulting state. Enabling is refused (returns false) when the host
// lacks AVX2, FMA or OS support for saving the YMM state; disabling always
// takes effect. The scalar fallback emits the same words, so flipping this
// mid-run is safe — it only changes which instructions compute the same
// values.
func SetSIMD(enable bool) bool {
	if enable && !cpuSupportsAVX2FMA() {
		simdOn.Store(false)
		return false
	}
	simdOn.Store(enable)
	return enable
}

// cpuid and xgetbv0 are the tiny assembly probes behind feature detection —
// stdlib-only, no new module dependencies (golang.org/x/sys/cpu would pull
// one in, and internal/cpu is off-limits outside the standard library).
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// cpuSupportsAVX2FMA performs the full architectural check for safely running
// VEX-encoded 256-bit integer and fused multiply-add code: FMA, AVX and
// OSXSAVE in CPUID.1:ECX, AVX2 in CPUID.(7,0):EBX, and the OS actually
// enabling XMM+YMM state saving in XCR0. Skipping the XCR0 check is the
// classic way to SIGILL inside a VM.
func cpuSupportsAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const fmaBit = 1 << 12
	const osxsaveBit = 1 << 27
	const avxBit = 1 << 28
	if ecx1&fmaBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	xcr0, _ := xgetbv0()
	const xmmYmmState = 0x6 // SSE (bit 1) and AVX (bit 2) state enabled
	if xcr0&xmmYmmState != xmmYmmState {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}

// Assembly kernels (ntt_amd64.s, vec_amd64.s). Every function processes
// only whole 4-lane groups: the generic NTT stage kernels are called for
// stages with block length t ≥ 4 (t is a power of two, so always a multiple
// of the vector width there), the t=2/t=1 edge kernels take whole
// polynomials of at least vecMinN coefficients, and the sweep kernels are
// handed a length pre-truncated to a multiple of 4 by their Go wrappers,
// which run the scalar loop on the tail. All of them tolerate out aliasing
// an input (each lane group is fully read before it is written, like the
// scalar loops). //go:noescape keeps the slice headers off the heap so the
// zero-allocation locks keep holding on the vector path.

//go:noescape
func fmaFwdFirst(dst, src []uint64, w, wq, q float64)

//go:noescape
func fmaFwdStep(p, w []uint64, wq []float64, m, t int, q float64)

//go:noescape
func fmaFwdStep2(p, w []uint64, wq []float64, m, t int, q float64)

//go:noescape
func fmaFwdTail(p, w []uint64, wq []float64, q, qinv float64)

//go:noescape
func fmaInvHead(p, w []uint64, wq []float64, q float64, src []uint64)

//go:noescape
func fmaInvStep(p, w []uint64, wq []float64, h, t int, q, qinv float64)

//go:noescape
func fmaInvStep2(p, w []uint64, wq []float64, h, t int, q, qinv float64)

//go:noescape
func fmaInvLast(p []uint64, n1, n1q, wn, wnq, q float64)

//go:noescape
func mulCoeffsFMA(out, a, b []uint64, q, qinv float64)

//go:noescape
func mulCoeffsAndAddFMA(out, a, b []uint64, q, qinv float64)

//go:noescape
func mulScalarFMA(out, a []uint64, w, wq, q float64)

//go:noescape
func dotCoeffsFMA(out []uint64, a, b []Poly, add int, q, qinv float64)

//go:noescape
func dotFixedFMA(out []uint64, a []Poly, w []float64, add int, q, qinv float64)

//go:noescape
func subMulScalarFMA(out, a, b []uint64, w, wq, q, qinv float64, add int)

//go:noescape
func addVecAVX2(out, a, b []uint64, q uint64)

//go:noescape
func subVecAVX2(out, a, b []uint64, q uint64)

//go:noescape
func negAddVecAVX2(out, a, b []uint64, q uint64)

//go:noescape
func macDigitOuterAVX2(acc, row, x []uint64, stride int, shift, mask uint64)
