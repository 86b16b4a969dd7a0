package ckks

import (
	"math/cmplx"
	"testing"

	"heap/internal/ring"
	"heap/internal/rlwe"
)

// bootstrapTestParams: N=2^logN, q0 a 50-bit prime, 21 further 44-bit limbs
// (Δ pinned to a limb so repeated Rescale keeps the scale stable), dnum=6,
// full packing.
func bootstrapTestParams(t *testing.T, logN int) *Parameters {
	t.Helper()
	q := append(ring.GenerateNTTPrimes(50, logN, 1), ring.GenerateNTTPrimes(44, logN, 21)...)
	p := ring.GenerateNTTPrimesUp(50, logN, 4)
	params := MustParameters(logN, q, p, ring.DefaultSigma, 6, float64(q[1]), 1<<(logN-1))
	return params
}

func newBootstrapContext(t *testing.T, logN int) (*Parameters, *Client, *Bootstrapper) {
	t.Helper()
	params := bootstrapTestParams(t, logN)
	kg := rlwe.NewKeyGenerator(params.Parameters, 40)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	cl := NewClient(params, sk, 41)
	keys := GenEvaluationKeySet(params, kg, sk, BootstrapRotations(params), true)
	ev := NewEvaluator(params, keys, nil)
	bt := NewBootstrapper(params, cl.Encoder, ev, DefaultBootstrapConfig())
	return params, cl, bt
}

func TestLinearTransformIdentityAndShift(t *testing.T) {
	p := testParams(7, 4, 64)
	kg := rlwe.NewKeyGenerator(p.Parameters, 42)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	cl := NewClient(p, sk, 43)

	// Identity and a cyclic-shift matrix.
	id := NewLinearTransform(cl.Encoder, func(r, c int) complex128 {
		if r == c {
			return 1
		}
		return 0
	}, p.Slots, p.MaxLevel(), p.DefaultScale)
	shift := NewLinearTransform(cl.Encoder, func(r, c int) complex128 {
		if (r+3)%p.Slots == c {
			return 1
		}
		return 0
	}, p.Slots, p.MaxLevel(), p.DefaultScale)

	rots := append(id.Rotations(), shift.Rotations()...)
	keys := GenEvaluationKeySet(p, kg, sk, rots, false)
	ev := NewEvaluator(p, keys, nil)

	v := rampVector(p.Slots)
	ct := cl.Encrypt(v)
	got := cl.Decrypt(ev.Rescale(ev.EvalLinearTransform(ct, id)))
	if err := maxErr(got, v); err > 1e-5 {
		t.Errorf("identity LT error %g", err)
	}
	got = cl.Decrypt(ev.Rescale(ev.EvalLinearTransform(ct, shift)))
	want := make([]complex128, p.Slots)
	for i := range want {
		want[i] = v[(i+3)%p.Slots]
	}
	if err := maxErr(got, want); err > 1e-5 {
		t.Errorf("shift LT error %g", err)
	}
}

func TestLinearTransformDense(t *testing.T) {
	p := testParams(6, 4, 32)
	kg := rlwe.NewKeyGenerator(p.Parameters, 44)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	cl := NewClient(p, sk, 45)

	m := func(r, c int) complex128 {
		return complex(float64(r-c)/64, float64(r+c)/128)
	}
	lt := NewLinearTransform(cl.Encoder, m, p.Slots, p.MaxLevel(), p.DefaultScale)
	keys := GenEvaluationKeySet(p, kg, sk, lt.Rotations(), false)
	ev := NewEvaluator(p, keys, nil)

	v := rampVector(p.Slots)
	ct := cl.Encrypt(v)
	got := cl.Decrypt(ev.Rescale(ev.EvalLinearTransform(ct, lt)))
	want := make([]complex128, p.Slots)
	for r := 0; r < p.Slots; r++ {
		var acc complex128
		for c := 0; c < p.Slots; c++ {
			acc += m(r, c) * v[c]
		}
		want[r] = acc
	}
	if err := maxErr(got, want); err > 1e-4 {
		t.Errorf("dense LT error %g", err)
	}
}

func TestConventionalBootstrap(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap test is slow")
	}
	params, cl, bt := newBootstrapContext(t, 9)

	v := make([]complex128, params.Slots)
	for i := range v {
		v[i] = complex(0.6*float64(i%7)/7-0.3, 0.4*float64(i%5)/5-0.2)
	}
	// Simulate an exhausted ciphertext at level 1.
	ct := cl.EncryptAtLevel(v, 1)
	out := bt.Bootstrap(ct)

	// C2S(1) + input scaling(1) + exp Taylor(4) + R squarings + sine
	// extraction(1) + S2C(1).
	consumed := 8 + bt.Cfg.R
	if out.Level() != params.MaxLevel()-consumed {
		t.Fatalf("bootstrap output level %d want %d", out.Level(), params.MaxLevel()-consumed)
	}
	got := cl.Decrypt(out)
	worst := 0.0
	for i := range v {
		if e := cmplx.Abs(got[i] - v[i]); e > worst {
			worst = e
		}
	}
	t.Logf("conventional bootstrap max error: %g", worst)
	if worst > 5e-3 {
		t.Errorf("bootstrap error %g exceeds tolerance", worst)
	}

	// The refreshed ciphertext must support further multiplications.
	ev := bt.Ev
	sq := ev.MulRelinRescale(out, out)
	got2 := cl.Decrypt(sq)
	for i := range v {
		if e := cmplx.Abs(got2[i] - v[i]*v[i]); e > 1e-2 {
			t.Fatalf("post-bootstrap square error %g at slot %d", e, i)
		}
	}
}

// TestConventionalBootstrapWidthTwo runs the conventional bootstrap — a few
// hundred rotations, hoisted rotations, multiplications and rescales — on one
// ciphertext with the evaluator's key switcher at one worker and at two, at
// N=2^10, the smallest ring whose limb tasks fan out: the refreshed
// ciphertexts must be the same words, and accurate.
func TestConventionalBootstrapWidthTwo(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap test is slow")
	}
	params, cl, bt := newBootstrapContext(t, 10)
	v := make([]complex128, params.Slots)
	for i := range v {
		v[i] = complex(0.6*float64(i%7)/7-0.3, 0.4*float64(i%5)/5-0.2)
	}
	ct := cl.EncryptAtLevel(v, 1)
	want := bt.Bootstrap(ct)
	bt.Ev.KS.SetWorkers(2)
	got := bt.Bootstrap(ct)
	sameCiphertext(t, "conventional bootstrap", params, want, got)
	if err := maxErr(cl.Decrypt(got), v); err > 5e-3 {
		t.Errorf("bootstrap error %g exceeds tolerance", err)
	}
}

// Rotations returns every rotation index the evaluation needs, for Galois
// key generation.
func (lt *LinearTransform) Rotations() []int {
	seen := map[int]bool{}
	for k := range lt.diags {
		seen[k%lt.G] = true
		seen[lt.G*(k/lt.G)] = true
	}
	out := make([]int, 0, len(seen))
	for k := range seen {
		if k != 0 {
			out = append(out, k)
		}
	}
	return out
}
