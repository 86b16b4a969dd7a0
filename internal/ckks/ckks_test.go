package ckks

import (
	"fmt"
	"math"
	"math/cmplx"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"heap/internal/ring"
	"heap/internal/rlwe"
)

// testParams returns a small parameter set for fast unit tests: N = 2^logN
// with `limbs` 45-bit limbs and Δ = 2^43 (close to the limb size, as the
// paper prescribes, so the scale stays stable under repeated Rescale).
func testParams(logN, limbs, slots int) *Parameters {
	q := ring.GenerateNTTPrimes(45, logN, limbs)
	p := ring.GenerateNTTPrimesUp(45, logN, 3)
	// Keep gadget digits at two limbs so the three special primes always
	// cover them, whatever the chain length.
	dnum := (limbs + 1) / 2
	if dnum < 1 {
		dnum = 1
	}
	return MustParameters(logN, q, p, ring.DefaultSigma, dnum, float64(uint64(1)<<43), slots)
}

func maxErr(got, want []complex128) float64 {
	worst := 0.0
	for i := range want {
		if e := cmplx.Abs(got[i] - want[i]); e > worst {
			worst = e
		}
	}
	return worst
}

func rampVector(n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(float64(i)/float64(n)-0.5, float64(n-i)/float64(2*n))
	}
	return v
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, tc := range []struct{ logN, slots int }{{6, 32}, {8, 128}, {8, 16}, {10, 512}} {
		p := testParams(tc.logN, 3, tc.slots)
		e := NewEncoder(p)
		v := rampVector(tc.slots)
		pt := e.EncodeAtLevel(v, p.DefaultScale, p.MaxLevel())
		b := p.QBasis.AtLevel(p.MaxLevel())
		b.INTT(pt)
		got := e.Decode(b.CRTReconstructCentered(pt), p.DefaultScale)
		if err := maxErr(got, v); err > 1e-7 {
			t.Errorf("logN=%d slots=%d: encode/decode error %g", tc.logN, tc.slots, err)
		}
	}
}

func TestEncryptDecrypt(t *testing.T) {
	p := testParams(7, 3, 64)
	kg := rlwe.NewKeyGenerator(p.Parameters, 1)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	cl := NewClient(p, sk, 2)
	v := rampVector(p.Slots)
	ct := cl.Encrypt(v)
	got := cl.Decrypt(ct)
	if err := maxErr(got, v); err > 1e-6 {
		t.Errorf("encrypt/decrypt error %g", err)
	}
}

func newTestContext(t *testing.T, logN, limbs, slots int, rotations []int) (*Parameters, *Client, *Evaluator) {
	t.Helper()
	p := testParams(logN, limbs, slots)
	kg := rlwe.NewKeyGenerator(p.Parameters, 10)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	cl := NewClient(p, sk, 11)
	keys := GenEvaluationKeySet(p, kg, sk, rotations, true)
	ev := NewEvaluator(p, keys, nil)
	return p, cl, ev
}

func TestAddSubNeg(t *testing.T) {
	p, cl, ev := newTestContext(t, 6, 3, 32, nil)
	a, b := rampVector(p.Slots), rampVector(p.Slots)
	for i := range b {
		b[i] *= complex(0, 1)
	}
	ctA, ctB := cl.Encrypt(a), cl.Encrypt(b)

	sum := cl.Decrypt(ev.Add(ctA, ctB))
	want := make([]complex128, p.Slots)
	for i := range want {
		want[i] = a[i] + b[i]
	}
	if err := maxErr(sum, want); err > 1e-6 {
		t.Errorf("Add error %g", err)
	}

	diff := cl.Decrypt(ev.Sub(ctA, ctB))
	for i := range want {
		want[i] = a[i] - b[i]
	}
	if err := maxErr(diff, want); err > 1e-6 {
		t.Errorf("Sub error %g", err)
	}

	neg := cl.Decrypt(ev.Neg(ctA))
	for i := range want {
		want[i] = -a[i]
	}
	if err := maxErr(neg, want); err > 1e-6 {
		t.Errorf("Neg error %g", err)
	}
}

// TestAddPlainLowerLevelPlaintext is the regression test for AddPlain with a
// plaintext encoded below the ciphertext's level: the sum must come back at
// the plaintext's level and decrypt to a + b. It used to keep ct's level and
// add pt over the shared limbs only, leaving upper limbs that encode a alone —
// an RNS representation of no single value.
func TestAddPlainLowerLevelPlaintext(t *testing.T) {
	p, cl, ev := newTestContext(t, 6, 3, 32, nil)
	a, b := rampVector(p.Slots), rampVector(p.Slots)
	for i := range b {
		b[i] = complex(0.25, -0.5) * b[i]
	}
	want := make([]complex128, p.Slots)
	for i := range want {
		want[i] = a[i] + b[i]
	}
	ct := cl.Encrypt(a)
	for level := p.MaxLevel(); level >= 1; level-- {
		pt := cl.Encoder.EncodeAtLevel(b, ct.Scale, level)
		sum := ev.AddPlain(ct, pt)
		if sum.Level() != level {
			t.Fatalf("plaintext at level %d: sum at level %d", level, sum.Level())
		}
		if err := maxErr(cl.Decrypt(sum), want); err > 1e-6 {
			t.Errorf("plaintext at level %d: AddPlain error %g", level, err)
		}
	}
	if ct.Level() != p.MaxLevel() {
		t.Error("AddPlain modified its input")
	}
}

func TestMulRescale(t *testing.T) {
	p, cl, ev := newTestContext(t, 7, 4, 64, nil)
	a, b := rampVector(p.Slots), rampVector(p.Slots)
	ctA, ctB := cl.Encrypt(a), cl.Encrypt(b)
	prod := ev.MulRelinRescale(ctA, ctB)
	if prod.Level() != p.MaxLevel()-1 {
		t.Fatalf("rescaled level %d want %d", prod.Level(), p.MaxLevel()-1)
	}
	got := cl.Decrypt(prod)
	want := make([]complex128, p.Slots)
	for i := range want {
		want[i] = a[i] * b[i]
	}
	if err := maxErr(got, want); err > 1e-5 {
		t.Errorf("Mul error %g", err)
	}
}

func TestMulPlain(t *testing.T) {
	p, cl, ev := newTestContext(t, 6, 3, 32, nil)
	a := rampVector(p.Slots)
	w := make([]complex128, p.Slots)
	for i := range w {
		w[i] = complex(math.Cos(float64(i)), math.Sin(float64(i)))
	}
	ct := cl.Encrypt(a)
	pt := cl.Encoder.EncodeAtLevel(w, p.DefaultScale, ct.Level())
	out := ev.Rescale(ev.MulPlain(ct, pt, p.DefaultScale))
	got := cl.Decrypt(out)
	want := make([]complex128, p.Slots)
	for i := range want {
		want[i] = a[i] * w[i]
	}
	if err := maxErr(got, want); err > 1e-5 {
		t.Errorf("MulPlain error %g", err)
	}
}

func TestMultiplicativeDepth(t *testing.T) {
	// Use every available level: ((a²)²)²… until level 1, checking values.
	p, cl, ev := newTestContext(t, 6, 4, 32, nil)
	v := make([]complex128, p.Slots)
	for i := range v {
		v[i] = complex(0.9, 0)
	}
	ct := cl.Encrypt(v)
	want := 0.9
	for ct.Level() > 1 {
		ct = ev.MulRelinRescale(ct, ct)
		want *= want
	}
	got := cl.Decrypt(ct)
	for i := range got {
		if math.Abs(real(got[i])-want) > 1e-3 {
			t.Fatalf("slot %d: %v want %v", i, got[i], want)
		}
	}
}

func TestRotateConjugate(t *testing.T) {
	p, cl, ev := newTestContext(t, 7, 3, 64, []int{1, 5, -3, 17})
	a := rampVector(p.Slots)
	ct := cl.Encrypt(a)
	for _, k := range []int{1, 5, -3, 17} {
		got := cl.Decrypt(ev.Rotate(ct, k))
		want := make([]complex128, p.Slots)
		for i := range want {
			want[i] = a[((i+k)%p.Slots+p.Slots)%p.Slots]
		}
		if err := maxErr(got, want); err > 1e-5 {
			t.Errorf("Rotate(%d) error %g", k, err)
		}
	}
	got := cl.Decrypt(ev.Conjugate(ct))
	want := make([]complex128, p.Slots)
	for i := range want {
		want[i] = cmplx.Conj(a[i])
	}
	if err := maxErr(got, want); err > 1e-5 {
		t.Errorf("Conjugate error %g", err)
	}
}

func TestMulByComplexConstAndAddConst(t *testing.T) {
	p, cl, ev := newTestContext(t, 6, 3, 32, nil)
	a := rampVector(p.Slots)
	ct := cl.Encrypt(a)

	c := complex(0.75, -1.25)
	out := ev.Rescale(ev.MulByComplexConst(ct, c, p.DefaultScale))
	got := cl.Decrypt(out)
	want := make([]complex128, p.Slots)
	for i := range want {
		want[i] = a[i] * c
	}
	if err := maxErr(got, want); err > 1e-5 {
		t.Errorf("MulByComplexConst error %g", err)
	}

	out2 := ev.AddConst(ct, complex(0.5, 0.25))
	got2 := cl.Decrypt(out2)
	for i := range want {
		want[i] = a[i] + complex(0.5, 0.25)
	}
	if err := maxErr(got2, want); err > 1e-5 {
		t.Errorf("AddConst error %g", err)
	}
}

func TestMulByConstIntAndDropLevels(t *testing.T) {
	p, cl, ev := newTestContext(t, 6, 3, 32, nil)
	a := rampVector(p.Slots)
	ct := cl.Encrypt(a)
	out := ev.MulByConstInt(ct, -3)
	got := cl.Decrypt(out)
	want := make([]complex128, p.Slots)
	for i := range want {
		want[i] = a[i] * -3
	}
	if err := maxErr(got, want); err > 1e-5 {
		t.Errorf("MulByConstInt error %g", err)
	}
	dropped := ev.DropLevels(ct, 1)
	if dropped.Level() != ct.Level()-1 {
		t.Fatal("DropLevels did not drop")
	}
	if err := maxErr(cl.Decrypt(dropped), a); err > 1e-5 {
		t.Errorf("DropLevels changed values: %g", err)
	}
}

func TestSparseSlotsReplication(t *testing.T) {
	// Sparse packing (slots < N/2) replicates the vector in the subring;
	// a rotation by `slots` must therefore be the identity.
	p, cl, ev := newTestContext(t, 7, 3, 16, []int{16})
	a := rampVector(p.Slots)
	ct := cl.Encrypt(a)
	got := cl.Decrypt(ev.Rotate(ct, 16))
	if err := maxErr(got, a); err > 1e-5 {
		t.Errorf("rotation by slot count is not identity under sparse packing: %g", err)
	}
}

func TestNoiseBitsDiagnostic(t *testing.T) {
	p := testParams(6, 3, 32)
	kg := rlwe.NewKeyGenerator(p.Parameters, 130)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	cl := NewClient(p, sk, 131)
	v := rampVector(p.Slots)
	ct := cl.Encrypt(v)
	bits := cl.NoiseBits(ct, v)
	// Fresh encryption noise ≈ σ·√N-ish ≈ 2^7±; far below the 43-bit scale.
	if bits < 1 || bits > 25 {
		t.Errorf("fresh-ciphertext noise %f bits outside the expected band", bits)
	}
	// A wrong expectation reports huge noise.
	w := make([]complex128, p.Slots)
	if cl.NoiseBits(ct, w) < 40 {
		t.Error("noise against wrong expectation should approach the scale")
	}
}

// sameCiphertext requires got to be want word for word, with the same level,
// representation and scale.
func sameCiphertext(t *testing.T, what string, p *Parameters, want, got *rlwe.Ciphertext) {
	t.Helper()
	if got.Level() != want.Level() || got.IsNTT != want.IsNTT || got.Scale != want.Scale {
		t.Fatalf("%s: level %d IsNTT %v scale %g, want level %d IsNTT %v scale %g", what,
			got.Level(), got.IsNTT, got.Scale, want.Level(), want.IsNTT, want.Scale)
	}
	if !p.QBasis.Equal(want.C0, got.C0) || !p.QBasis.Equal(want.C1, got.C1) {
		t.Fatalf("%s: words differ", what)
	}
}

// TestEvaluatorWidthChangesNothing runs the operations that go through the
// key switch or fan their own limb loops — Rotate, Conjugate, Mul, Rescale,
// MulRelinRescale and a linear transform (hoisted baby steps, plain giant
// steps) — on evaluators over one key set whose key switchers are configured
// for 1, 2, 3 and 8 workers, at the smallest ring that fans out, and requires
// every output to equal the one-worker evaluator's word for word.
func TestEvaluatorWidthChangesNothing(t *testing.T) {
	p := testParams(10, 5, 16)
	kg := rlwe.NewKeyGenerator(p.Parameters, 60)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	cl := NewClient(p, sk, 61)
	lt := NewLinearTransform(cl.Encoder, func(r, c int) complex128 {
		return complex(float64((3*r+c)%7)/7, float64((r+2*c)%5)/5)
	}, p.Slots, p.MaxLevel(), p.DefaultScale)
	keys := GenEvaluationKeySet(p, kg, sk, append(lt.Rotations(), 1, -3), true)
	a, b := cl.Encrypt(rampVector(p.Slots)), cl.Encrypt(rampVector(p.Slots))

	ops := []string{"Rotate", "Conjugate", "Mul", "Rescale", "MulRelinRescale", "EvalLinearTransform"}
	run := func(workers int) []*rlwe.Ciphertext {
		ev := NewEvaluator(p, keys, nil)
		ev.KS.SetWorkers(workers)
		prod := ev.Mul(a, b)
		return []*rlwe.Ciphertext{ev.Rotate(a, -3), ev.Conjugate(a), prod, ev.Rescale(prod), ev.MulRelinRescale(a, b), ev.EvalLinearTransform(a, lt)}
	}
	want := run(1)
	for _, workers := range []int{2, 3, 8} {
		for i, got := range run(workers) {
			sameCiphertext(t, ops[i], p, want[i], got)
		}
	}
}

// TestMulRelinRescaleAllocatesOnlyItsOutput: the product and its degree-2
// component live in the evaluator's pooled buffers, so a MulRelinRescale
// allocates the rescaled ciphertext and a few small headers, not the three
// level-sized polynomials a Mul followed by a Rescale allocates. The buffers
// come back dirty from the previous call, at another level, and the words must
// still be those of Rescale(Mul(a, b)).
func TestMulRelinRescaleAllocatesOnlyItsOutput(t *testing.T) {
	p, cl, ev := newTestContext(t, 10, 5, 64, nil)
	ev.KS.SetWorkers(2)
	top := cl.Encrypt(rampVector(p.Slots))
	low := ev.DropLevels(cl.Encrypt(rampVector(p.Slots)), 2)
	for _, in := range []*rlwe.Ciphertext{top, low, top} {
		sameCiphertext(t, fmt.Sprintf("MulRelinRescale at level %d", in.Level()), p, ev.Rescale(ev.Mul(in, in)), ev.MulRelinRescale(in, in))
	}

	if raceEnabled {
		return // the byte count needs pools that keep what they are given
	}
	// A GC would empty the pools, and a goroutine that resumes on another
	// processor can miss the one its pooled arena went back to, so the test
	// takes the median call of several with the collector off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	perCall := make([]uint64, 9)
	var before, after runtime.MemStats
	for i := range perCall {
		runtime.ReadMemStats(&before)
		ev.MulRelinRescale(top, top)
		runtime.ReadMemStats(&after)
		perCall[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(perCall)
	output := uint64(2 * (top.Level() - 1) * p.N() * 8)
	if median, slack := perCall[len(perCall)/2], uint64(8<<10); median > output+slack {
		t.Errorf("MulRelinRescale allocates %d bytes per call; its output is %d", median, output)
	}
}

// TestRescaleHonoursRepresentation: a coefficient-form ciphertext is rescaled
// in coefficient form — the INTT of rescaling its NTT form — and says so.
// Rescale used to treat every input as NTT-form and stamp the output so.
func TestRescaleHonoursRepresentation(t *testing.T) {
	p, cl, ev := newTestContext(t, 7, 4, 64, nil)
	ct := ev.Mul(cl.Encrypt(rampVector(p.Slots)), cl.Encrypt(rampVector(p.Slots)))
	want := ev.Rescale(ct)
	bas := p.QBasis.AtLevel(want.Level())
	bas.INTT(want.C0)
	bas.INTT(want.C1)
	want.IsNTT = false

	coeff := ct.CopyNew()
	p.QBasis.AtLevel(ct.Level()).INTT(coeff.C0)
	p.QBasis.AtLevel(ct.Level()).INTT(coeff.C1)
	coeff.IsNTT = false
	sameCiphertext(t, "Rescale of a coefficient-form ciphertext", p, want, ev.Rescale(coeff))
}
