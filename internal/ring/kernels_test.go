package ring

import (
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
)

// paramsPrimes returns the committed paper-parameter basis (7 ciphertext
// primes at 36 bits, 4 special primes at 37 bits, logN=13) so the kernel
// equivalence suite runs on the moduli the benchmarks and the bootstrapper
// actually use, plus a few extreme-width primes to exercise the shift logic.
func paramsPrimes(t testing.TB) []uint64 {
	t.Helper()
	primes := GenerateNTTPrimes(36, 13, 7)
	primes = append(primes, GenerateNTTPrimesUp(37, 13, 4)...)
	// Edge widths: the smallest usable odd primes and the top of the
	// supported range, where the fixed-shift window is tightest.
	primes = append(primes, 97, 257, 12289, GenerateNTTPrimes(55, 12, 1)[0], GenerateNTTPrimes(60, 12, 1)[0])
	return primes
}

// adversarialOperands returns the boundary operands every specialized kernel
// is exercised with: 0, 1, q-1 and neighbors, the half-range, and values
// just above the lazy-reduction bounds (2q, 4q) where a kernel that
// documents a canonical-operand precondition must still be excluded or a
// lazy kernel must still meet its output interval.
func adversarialOperands(q uint64) []uint64 {
	ops := []uint64{0, 1, 2, 3, q - 1, q - 2, q / 2, q/2 + 1}
	return ops
}

// TestFixedBarrettMatchesGeneric is the randomized equivalence of the
// fixed-shift single-word Barrett path against the generic two-word
// MulModBarrett reference, over every params prime and adversarial operand.
func TestFixedBarrettMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, q := range paramsPrimes(t) {
		m := NewModulus(q)
		check := func(a, b uint64) {
			t.Helper()
			want := m.MulModBarrett(a, b)
			got := m.MulModBarrettFixed(a, b)
			if got != want {
				t.Fatalf("q=%d: MulModBarrettFixed(%d,%d)=%d, generic Barrett gives %d", q, a, b, got, want)
			}
		}
		ops := adversarialOperands(q)
		for _, a := range ops {
			for _, b := range ops {
				check(a, b)
			}
		}
		for i := 0; i < 20000; i++ {
			check(rng.Uint64()%q, rng.Uint64()%q)
		}
	}
}

// TestBarrettReduce128Correction exercises the worst-case quotient
// underestimate of the generic 128-bit Barrett reduction: the correction is
// documented as at most two conditional subtractions (no data-dependent
// loop), so the result must already be canonical on inputs engineered to
// maximize the dropped-carry and truncation error — hi just under q, low
// word saturated — as well as under random fire, all cross-checked against
// big.Int division.
func TestBarrettReduce128Correction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	for _, q := range paramsPrimes(t) {
		m := NewModulus(q)
		bigQ := new(big.Int).SetUint64(q)
		check := func(hi, lo uint64) {
			t.Helper()
			x := new(big.Int).SetUint64(hi)
			x.Mul(x, two64)
			x.Add(x, new(big.Int).SetUint64(lo))
			want := new(big.Int).Mod(x, bigQ).Uint64()
			if got := m.BarrettReduce128(hi, lo); got != want {
				t.Fatalf("q=%d: BarrettReduce128(%d,%d)=%d, want %d", q, hi, lo, got, want)
			}
		}
		// Boundary sweeps: extreme high words (the precondition is hi < q)
		// against low words chosen to push the truncated partial products to
		// their carry boundaries.
		his := []uint64{0, 1, 2, q / 2, q - 2, q - 1}
		los := []uint64{0, 1, q - 1, q, ^uint64(0), ^uint64(0) - 1, ^uint64(0) - (q - 1), 1 << 63, (1 << 63) - 1}
		for _, hi := range his {
			for _, lo := range los {
				check(hi, lo)
			}
		}
		for i := 0; i < 20000; i++ {
			check(rng.Uint64()%q, rng.Uint64())
		}
		// Products of canonical operands (the MulModBarrett path).
		for i := 0; i < 2000; i++ {
			a, b := rng.Uint64()%q, rng.Uint64()%q
			hi, lo := bits.Mul64(a, b)
			check(hi, lo)
		}
	}
}

// TestMulCoeffsKernelsMatchScalarReference checks the open-coded fixed-shift
// loops of MulCoeffs and MulCoeffsAndAdd against the scalar MulModBarrett
// reference, with adversarial coefficients planted alongside random ones.
func TestMulCoeffsKernelsMatchScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for _, q := range []uint64{GenerateNTTPrimes(36, 6, 1)[0], GenerateNTTPrimesUp(37, 6, 1)[0], GenerateNTTPrimes(60, 6, 1)[0]} {
		r := NewRing(6, q)
		a, b, acc := r.NewPoly(), r.NewPoly(), r.NewPoly()
		ops := adversarialOperands(q)
		for i := range a {
			if i < len(ops) {
				a[i], b[i] = ops[i], ops[len(ops)-1-i]
			} else {
				a[i], b[i] = rng.Uint64()%q, rng.Uint64()%q
			}
			acc[i] = rng.Uint64() % q
		}
		wantMul := r.NewPoly()
		wantMac := acc.Copy()
		for i := range a {
			p := r.Mod.MulModBarrett(a[i], b[i])
			wantMul[i] = p
			wantMac[i] = r.Mod.AddMod(wantMac[i], p)
		}
		gotMul := r.NewPoly()
		r.MulCoeffs(a, b, gotMul)
		if !r.Equal(gotMul, wantMul) {
			t.Fatalf("q=%d: MulCoeffs diverges from scalar Barrett reference", q)
		}
		gotMac := acc.Copy()
		r.MulCoeffsAndAdd(a, b, gotMac)
		if !r.Equal(gotMac, wantMac) {
			t.Fatalf("q=%d: MulCoeffsAndAdd diverges from scalar Barrett reference", q)
		}
	}
}
