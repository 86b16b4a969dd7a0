package ring

import (
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// fuzzPrimes is built once per process: the committed basis widths plus edge
// and boundary moduli, so the selector byte can reach every width class the
// kernels specialize on — fmaEdgePrimes last, either side of the FMA bound.
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
		fuzzPrimesList = append(fuzzPrimesList, fmaEdgePrimes()...)
	})
	return fuzzPrimesList
}

// FuzzVectorVsScalarKernels fuzzes the equivalence contract: every
// dispatched kernel, run on the vector path and the scalar path with
// identical fuzz-chosen inputs (prime, length — including sub-width lengths
// and width±1 —, aliasing, values planted at the edges of the operand
// ranges), must produce byte-for-byte equal output. On builds or hosts
// without the vector path the target degenerates to scalar-vs-scalar and
// trivially holds, so corpus entries stay portable.
func FuzzVectorVsScalarKernels(f *testing.F) {
	// Kernel classes the selector byte reaches: seven sweeps (0-5 and 10),
	// the four transform entry points (6-9), the on-the-fly transform (11),
	// and the one-pass kernels that replaced multi-pass chains, each held to
	// that chain run on the scalar path as well: the Hadamard dot product
	// (12), the fixed-operand dot product (13), the ModDown's difference times
	// a constant (14) and the CMux's (X^k − 1)·p (15). Classes 6-11 named the
	// integer stage kernels until those were replaced by the FMA transforms,
	// whose stages share no representative with a scalar stage; class 3 named
	// the basis-conversion MAC out + a·w, which is now the two-term fixed dot
	// product it became. The committed files under testdata/fuzz keep their
	// bytes and their classes; the seed-logn12-* and seed-logn13-* files run
	// the transform classes at primary_tail's ring and the paper ring.
	const fuzzKernels = 16
	// Seed corpus: each kernel class at the tail-machinery lengths (1,
	// width-1, width, width+1, two groups minus one, two groups) with and
	// without aliasing; then every class on each fmaEdgePrimes modulus.
	for kernel := uint8(0); kernel < fuzzKernels; kernel++ {
		f.Add(uint64(1), uint8(0), kernel, uint8(1), false)
		f.Add(uint64(2), uint8(3), kernel, uint8(3), false)
		f.Add(uint64(3), uint8(5), kernel, uint8(4), true)
		f.Add(uint64(4), uint8(7), kernel, uint8(5), true)
		f.Add(uint64(6), uint8(9), kernel, uint8(7), true)
		f.Add(uint64(5), uint8(8), kernel, uint8(8), false)
	}
	edge := len(fuzzPrimes()) - len(fmaEdgePrimes())
	for i := range fmaEdgePrimes() {
		for kernel := uint8(0); kernel < fuzzKernels; kernel++ {
			f.Add(uint64(7+i), uint8(edge+i), kernel, uint8(13+i), i%2 == 0)
		}
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
					// Range edge: bound-1 .. bound-4.
					p[i] = (bound - 1 - uint64(rng.Intn(4))) % bound
				case 1:
					p[i] = uint64(rng.Intn(3)) % bound
				case 2:
					// Multiples of q near the top of a wide range.
					p[i] = qEdges[rng.Intn(len(qEdges))] % bound
				default:
					p[i] = rng.Uint64() % bound
				}
			}
		}

		// runRef runs ref on the scalar path, then run on the scalar and on the
		// vector path, on identical inputs, and requires the same words from
		// all three.
		runRef := func(ref, run func(p, a, b, out Poly), n int, pBound, aBound uint64) {
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
			pR, aR, outR := p.Copy(), a.Copy(), out.Copy()
			SetSIMD(false)
			ref(pR, aR, b, outR)
			for _, vec := range []bool{false, true} {
				pV, aV, outV := p.Copy(), a.Copy(), out.Copy()
				SetSIMD(vec && hasVec)
				run(pV, aV, b, outV)
				for i := 0; i < n; i++ {
					if pR[i] != pV[i] || aR[i] != aV[i] || outR[i] != outV[i] {
						t.Fatalf("q=%d kernel=%d n=%d alias=%v vector=%v idx=%d: reference (p=%d a=%d out=%d) kernel (p=%d a=%d out=%d)",
							q, kernel, n, alias, vec, i, pR[i], aR[i], outR[i], pV[i], aV[i], outV[i])
					}
				}
			}
		}
		runBoth := func(run func(p, a, b, out Poly), n int, pBound, aBound uint64) { runRef(run, run, n, pBound, aBound) }

		r := &Ring{Mod: mod}
		w := rng.Uint64() % q
		wShoup := mod.ShoupPrecomp(w)

		switch kernel % fuzzKernels {
		case 0:
			runBoth(func(p, a, b, out Poly) { r.MulCoeffs(a, b, out) }, int(length), q, q)
		case 1:
			runBoth(func(p, a, b, out Poly) { r.MulCoeffsAndAdd(a, b, out) }, int(length), q, q)
		case 2:
			runBoth(func(p, a, b, out Poly) { r.MulScalar(a, w, out) }, int(length), q, q)
		case 3:
			// The basis-conversion MAC out + a·w as the two-term fixed dot
			// product (w_0 = 1); its operands are residues of other primes,
			// up to the documented 2^50.
			ops := r.NewFixedOperands([]uint64{1, w})
			runBoth(func(p, a, b, out Poly) { r.DotFixed([]Poly{out, a}, ops, out) }, int(length), q, 1<<50)
		case 4:
			runBoth(func(p, a, b, out Poly) { r.Add(a, b, out) }, int(length), q, q)
		case 5:
			runBoth(func(p, a, b, out Poly) { r.Sub(a, b, out) }, int(length), q, q)
		case 10:
			runBoth(func(p, a, b, out Poly) { mod.MulShoupVec(a, out, w, wShoup) }, int(length), q, 1<<50)
		case 12, 13:
			dotAgainstMultiPass(t, r, kernel%fuzzKernels == 13, int(length), alias, rng, fill, hasVec)
		case 14:
			// The ModDown's (x − ext)·c, written or added onto out, against
			// Sub, MulScalar and Add.
			add := rng.Intn(2) == 0
			ref := func(p, a, b, out Poly) {
				d := make(Poly, len(out))
				r.Sub(a, b, d)
				r.MulScalar(d, w, d)
				if add {
					r.Add(out, d, out)
				} else {
					copy(out, d)
				}
			}
			runRef(ref, func(p, a, b, out Poly) {
				if add {
					r.SubMulScalarAndAdd(a, b, w, out)
				} else {
					r.SubMulScalar(a, b, w, out)
				}
			}, int(length), q, q)
		case 15:
			// The CMux's rotated difference (X^k − 1)·p at any k, against
			// MulByMonomialInto and Sub; the ring's degree is the length.
			n := max(1, int(length))
			rr := &Ring{N: n, Mod: mod}
			k := rng.Intn(4*n+1) - 2*n
			ref := func(p, a, b, out Poly) {
				rot := make(Poly, n)
				rr.MulByMonomialInto(p, k, rot)
				rr.Sub(rot, p, out)
			}
			runRef(ref, func(p, a, b, out Poly) { rr.MulByMonomialMinusOneInto(p, k, out) }, n, q, q)
		default:
			// Transforms: degree 8..8192, capped at the largest the prime is
			// NTT-friendly for, so the FMA drivers run every pass plan they
			// have up to the paper ring: an even or odd number of generic
			// stages (one two-stage pass short or a one-stage pass first), the
			// edge passes alone at degree 8. p holds the canonical input; the
			// out-of-place forms write a (out's storage when aliased) from p.
			logN := min(3+int(length)%11, bits.TrailingZeros64(q-1)-1)
			rr := NewRing(logN, q)
			n := rr.N
			sc := NewTwiddleScratch(n)
			var run func(p, a, b, out Poly)
			switch kernel % fuzzKernels {
			case 6:
				run = func(p, a, b, out Poly) { rr.NTT(p) }
			case 7:
				run = func(p, a, b, out Poly) { rr.INTT(p) }
			case 8:
				run = func(p, a, b, out Poly) { rr.NTTInto(a, p) }
			case 9:
				run = func(p, a, b, out Poly) { rr.INTTInto(a, p) }
			case 11:
				run = func(p, a, b, out Poly) { rr.NTTOnTheFlyWith(p, sc) }
			}
			runBoth(run, n, q, q)
		}
	})
}

// FuzzMACDigitOuter fuzzes the key-major LWE key switch's digit MAC: on
// identical fuzz-chosen inputs the 4-lane kernel and the scalar loop must both
// write, word for word, the per-term sums acc[t·m + l] += row[t]·digit(x[l]) —
// for key words and inputs below 2^k at every k ≤ 63 (the power-of-two moduli
// the kernel serves; the words themselves wrap mod 2^64), digits of 1 to 8
// bits at every position inside k bits, input lengths of every residue mod 4
// up to 66 and rows of 1 to 17 words, with all-ones and zero words planted.
// The committed corpus under testdata/fuzz adds edge shapes: k = 63 at
// one-bit and seven-bit digits (the top digit included), sub-width and
// width±1 lengths, and an empty input.
func FuzzMACDigitOuter(f *testing.F) {
	for _, length := range []uint8{1, 3, 4, 5, 7, 9, 66} {
		for _, logQ := range []uint8{1, 33, 35, 62} {
			f.Add(uint64(length)+uint64(logQ), logQ, uint8(6), length, uint8(8), uint8(2))
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, logQ, logBase, length, width, digit uint8) {
		prev := simdActive()
		defer SetSIMD(prev)
		hasVec := SetSIMD(true)

		k := 1 + int(logQ)%63
		b := 1 + int(logBase)%8
		m, w := int(length)%67, 1+int(width)%17
		shift := uint(b * (int(digit) % ((k + b - 1) / b)))
		mask := uint64(1)<<b - 1
		below := uint64(1)<<k - 1
		rng := rand.New(rand.NewSource(int64(seed)))
		word := func() uint64 {
			switch rng.Intn(4) {
			case 0:
				return below
			case 1:
				return 0
			default:
				return rng.Uint64() & below
			}
		}
		row, x, acc := make([]uint64, w), make([]uint64, m), make([]uint64, w*m)
		for i := range row {
			row[i] = word()
		}
		for i := range x {
			x[i] = word()
		}
		for i := range acc {
			acc[i] = rng.Uint64()
		}
		want := slices.Clone(acc)
		for t, r := range row {
			for l, v := range x {
				want[t*m+l] += r * (v >> shift & mask)
			}
		}
		SetSIMD(false)
		scalar := slices.Clone(acc)
		MACDigitOuter(scalar, row, x, shift, mask)
		vector := slices.Clone(acc)
		if hasVec {
			SetSIMD(true)
		}
		MACDigitOuter(vector, row, x, shift, mask)
		for i := range want {
			if scalar[i] != want[i] || vector[i] != want[i] {
				t.Fatalf("k=%d b=%d shift=%d m=%d w=%d word %d: scalar %#x vector %#x want %#x",
					k, b, shift, m, w, i, scalar[i], vector[i], want[i])
			}
		}
	})
}

// dotAgainstMultiPass is FuzzVectorVsScalarKernels' dot-product classes: a
// k-term dot (k = 1…10, so two kernel calls past eight terms) on n words, once
// in four with every operand at its maximum (q − 1, or 2^50 − 1 for the
// fixed dot's residues of other primes), with out aliasing a[0] when alias is
// set, must give on the scalar and on the vector path the words the
// multi-pass sweeps it replaces give on the scalar path. The Hadamard dot
// (fixed false) is written or accumulated at random; the reference is
// MulCoeffs or MulCoeffsAndAdd, then MulCoeffsAndAdd per later term. The
// fixed dot's reference is MulShoupVec, then MulShoupVec and Add per term.
func dotAgainstMultiPass(t *testing.T, r *Ring, fixed bool, n int, alias bool, rng *rand.Rand, fill func([]uint64, uint64), hasVec bool) {
	q := r.Mod.Q
	k := 1 + rng.Intn(10)
	top := rng.Intn(4) == 0
	aBound := q
	if fixed {
		aBound = 1 << 50
	}
	a, b := make([]Poly, k), make([]Poly, k)
	w := make([]uint64, k)
	for i := range a {
		a[i], b[i] = make(Poly, n), make(Poly, n)
		fill(a[i], aBound)
		fill(b[i], q)
		w[i] = rng.Uint64() % q
		if top {
			fillWith(a[i], func(int) uint64 { return aBound - 1 })
			fillWith(b[i], func(int) uint64 { return q - 1 })
			w[i] = q - 1
		}
	}
	out := make(Poly, n)
	fill(out, q)
	if alias {
		copy(out, a[0])
	}
	add := !fixed && rng.Intn(2) == 0
	ops := r.NewFixedOperands(w)

	SetSIMD(false)
	want := out.Copy()
	switch {
	case fixed:
		tmp := make(Poly, n)
		r.Mod.MulShoupVec(a[0], want, w[0], r.Mod.ShoupPrecomp(w[0]))
		for i := 1; i < k; i++ {
			r.Mod.MulShoupVec(a[i], tmp, w[i], r.Mod.ShoupPrecomp(w[i]))
			r.Add(want, tmp, want)
		}
	case add:
		for i := range a {
			r.MulCoeffsAndAdd(a[i], b[i], want)
		}
	default:
		r.MulCoeffs(a[0], b[0], want)
		for i := 1; i < k; i++ {
			r.MulCoeffsAndAdd(a[i], b[i], want)
		}
	}
	for _, vec := range []bool{false, true} {
		got := out.Copy()
		as := append([]Poly(nil), a...)
		if alias {
			as[0] = got
		}
		SetSIMD(vec && hasVec)
		switch {
		case fixed:
			r.DotFixed(as, ops, got)
		case add:
			r.dotCoeffs(as, b, got, true)
		default:
			r.DotCoeffs(as, b, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("q=%d fixed=%v add=%v k=%d n=%d alias=%v top=%v vector=%v idx=%d: dot %d, multi-pass %d",
					q, fixed, add, k, n, alias, top, vec, i, got[i], want[i])
			}
		}
	}
}
