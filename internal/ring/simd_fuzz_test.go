package ring

import (
	"math/rand"
	"sync"
	"testing"
)

// fuzzPrimes is built once per process: the committed basis widths plus edge
// and boundary moduli, so the selector byte can reach every shift/width class
// the kernels specialize on.
var fuzzPrimesOnce sync.Once
var fuzzPrimesList []uint64

func fuzzPrimes() []uint64 {
	fuzzPrimesOnce.Do(func() {
		fuzzPrimesList = GenerateNTTPrimes(36, 13, 2)
		fuzzPrimesList = append(fuzzPrimesList, GenerateNTTPrimesUp(37, 13, 2)...)
		fuzzPrimesList = append(fuzzPrimesList, 97, 257, 12289)
		fuzzPrimesList = append(fuzzPrimesList, GenerateNTTPrimes(55, 12, 1)[0])
		fuzzPrimesList = append(fuzzPrimesList, GenerateNTTPrimes(60, 12, 1)[0])
		fuzzPrimesList = append(fuzzPrimesList, GenerateNTTPrimes(61, 12, 1)[0])
	})
	return fuzzPrimesList
}

// FuzzVectorVsScalarKernels fuzzes the bit-identity contract: every
// dispatched kernel, run on the vector path and the scalar path with
// identical fuzz-chosen inputs (prime, length — including sub-width lengths
// and width±1 —, aliasing, values planted at the lazy-interval edges), must
// produce byte-for-byte equal output. On builds or hosts without the vector
// path the target degenerates to scalar-vs-scalar and trivially holds, so
// corpus entries stay portable.
func FuzzVectorVsScalarKernels(f *testing.F) {
	// Kernel classes the selector byte reaches: six sweeps (0-5), the two
	// generic stage kernels (6 forward, 7 inverse), and the four t=2/t=1
	// edge-stage kernels (8-11).
	const fuzzKernels = 12
	// Seed corpus: each kernel class at the tail-machinery lengths (1,
	// width-1, width, width+1, two groups minus one, two groups) with and
	// without aliasing, the last-but-one at the 61-bit boundary modulus. The
	// committed files under testdata/fuzz carry class bytes in this 12-class
	// numbering: they were re-numbered when two stage-kernel classes of a
	// deleted transform family (8 and 9 of a former 14) went, and the three
	// files that targeted those now give sweeps 1-3 a second tail length.
	// Every class keeps committed entries — the sweeps at tail lengths, the
	// edge-stage kernels at the vecMinN degree and at n=256.
	for kernel := uint8(0); kernel < fuzzKernels; kernel++ {
		f.Add(uint64(1), uint8(0), kernel, uint8(1), false)
		f.Add(uint64(2), uint8(3), kernel, uint8(3), false)
		f.Add(uint64(3), uint8(5), kernel, uint8(4), true)
		f.Add(uint64(4), uint8(7), kernel, uint8(5), true)
		f.Add(uint64(6), uint8(9), kernel, uint8(7), true)
		f.Add(uint64(5), uint8(8), kernel, uint8(8), false)
	}
	f.Fuzz(func(t *testing.T, seed uint64, primeSel, kernel, length uint8, alias bool) {
		prev := simdActive()
		defer SetSIMD(prev)
		hasVec := SetSIMD(true)

		primes := fuzzPrimes()
		q := primes[int(primeSel)%len(primes)]
		mod := NewModulus(q)
		rng := rand.New(rand.NewSource(int64(seed)))

		fill := func(p []uint64, bound uint64) {
			qEdges := [...]uint64{q - 1, q, 2*q - 1, 2 * q}
			for i := range p {
				switch rng.Intn(5) {
				case 0:
					// Interval edge: bound-1 .. bound-4.
					p[i] = (bound - 1 - uint64(rng.Intn(4))) % bound
				case 1:
					p[i] = uint64(rng.Intn(3)) % bound
				case 2:
					// Interior fold points of the lazy intervals.
					p[i] = qEdges[rng.Intn(len(qEdges))] % bound
				default:
					p[i] = rng.Uint64() % bound
				}
			}
		}

		runBoth := func(run func(p, a, b, out Poly), n int, pBound, aBound uint64) {
			p := make(Poly, n)
			a := make(Poly, n)
			b := make(Poly, n)
			out := make(Poly, n)
			fill(p, pBound)
			fill(a, aBound)
			fill(b, q)
			fill(out, q)
			if alias {
				// out aliases a: kernels must read each lane group before
				// writing it, exactly like the scalar loops.
				a = out
			}
			pS, aS, outS := p.Copy(), a.Copy(), out.Copy()
			SetSIMD(false)
			run(pS, aS, b, outS)
			pV, aV, outV := p.Copy(), a.Copy(), out.Copy()
			if hasVec {
				SetSIMD(true)
			}
			run(pV, aV, b, outV)
			for i := 0; i < n; i++ {
				if pS[i] != pV[i] || aS[i] != aV[i] || outS[i] != outV[i] {
					t.Fatalf("q=%d kernel=%d n=%d alias=%v idx=%d: scalar (p=%d a=%d out=%d) vector (p=%d a=%d out=%d)",
						q, kernel, n, alias, i, pS[i], aS[i], outS[i], pV[i], aV[i], outV[i])
				}
			}
		}

		r := &Ring{Mod: mod}
		w := rng.Uint64() % q
		wShoup := mod.ShoupPrecomp(w)

		switch kernel % fuzzKernels {
		case 0:
			runBoth(func(p, a, b, out Poly) { r.MulCoeffs(a, b, out) }, int(length), q, q)
		case 1:
			runBoth(func(p, a, b, out Poly) { r.MulCoeffsAndAdd(a, b, out) }, int(length), q, q)
		case 2:
			// MulScalar accepts lazy [0, 2q) operands (the INTT sweep).
			runBoth(func(p, a, b, out Poly) { r.MulScalar(a, w, out) }, int(length), q, 2*q)
		case 3:
			runBoth(func(p, a, b, out Poly) { mod.MACShoupVec(a, out, w, wShoup) }, int(length), q, q)
		case 4:
			runBoth(func(p, a, b, out Poly) { r.Add(a, b, out) }, int(length), q, q)
		case 5:
			runBoth(func(p, a, b, out Poly) { r.Sub(a, b, out) }, int(length), q, q)
		default:
			// NTT stage kernels: degree 8..256, twiddle-like tables
			// (canonical, consistent companions); the generic kernels run one
			// fuzz-chosen stage with t >= 4, the edge kernels their own.
			logN := 3 + int(length)%6
			n := 1 << logN
			psi := make([]uint64, n)
			psiShoup := make([]uint64, n)
			for i := range psi {
				psi[i] = rng.Uint64() % q
				psiShoup[i] = mod.ShoupPrecomp(psi[i])
			}
			// Enumerate vectorizable stages, pick one from the seed.
			type stage struct{ m, t int }
			var stages []stage
			st := n
			for m := 1; m < n>>1; m <<= 1 {
				st >>= 1
				if st >= 4 {
					stages = append(stages, stage{m, st})
				}
			}
			sel := stages[int(seed>>32)%len(stages)]
			switch kernel % fuzzKernels {
			case 6:
				runBoth(func(p, a, b, out Poly) {
					if simdActive() {
						nttFwdStepAVX2(p, psi, psiShoup, q, sel.m, sel.t)
					} else {
						nttFwdStepScalar(p, psi, psiShoup, q, sel.m, sel.t)
					}
				}, n, 4*q, q)
			case 7:
				runBoth(func(p, a, b, out Poly) {
					if simdActive() {
						nttInvStepAVX2(p, psi, psiShoup, q, sel.m, sel.t)
					} else {
						nttInvStepScalar(p, psi, psiShoup, q, sel.m, sel.t)
					}
				}, n, 2*q, q)
			case 8:
				runBoth(func(p, a, b, out Poly) {
					if simdActive() {
						nttFwdT2AVX2(p, psi, psiShoup, q)
					} else {
						nttFwdStepScalar(p, psi, psiShoup, q, n>>2, 2)
					}
				}, n, 4*q, q)
			case 9:
				runBoth(func(p, a, b, out Poly) {
					if simdActive() {
						nttFwdLastAVX2(p, psi, psiShoup, q)
					} else {
						nttFwdLastRef(p, psi, psiShoup, q)
					}
				}, n, 4*q, q)
			case 10:
				runBoth(func(p, a, b, out Poly) {
					if simdActive() {
						nttInvFirstAVX2(p, psi, psiShoup, q)
					} else {
						nttInvStepScalar(p, psi, psiShoup, q, n>>1, 1)
					}
				}, n, 2*q, q)
			case 11:
				runBoth(func(p, a, b, out Poly) {
					if simdActive() {
						nttInvT2AVX2(p, psi, psiShoup, q)
					} else {
						nttInvStepScalar(p, psi, psiShoup, q, n>>2, 2)
					}
				}, n, 2*q, q)
			}
		}
	})
}
