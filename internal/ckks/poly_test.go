package ckks

import (
	"math"
	"math/cmplx"
	"testing"

	"heap/internal/rlwe"
)

func TestChebyshevPlaintextFit(t *testing.T) {
	f := func(x float64) float64 { return 1 / (1 + math.Exp(-x)) } // sigmoid
	a, b := -4.0, 4.0
	c := ApproximateChebyshev(f, a, b, 15)
	for _, x := range []float64{-3.5, -1, 0, 0.7, 2, 3.9} {
		u := 2*(x-a)/(b-a) - 1
		got := real(c.Eval(u))
		if e := math.Abs(got - f(x)); e > 1e-4 {
			t.Errorf("sigmoid fit at %g: got %g want %g (err %g)", x, got, f(x), e)
		}
	}
}

func TestEvalChebyshevHomomorphic(t *testing.T) {
	p := testParams(7, 10, 64)
	kg := rlwe.NewKeyGenerator(p.Parameters, 110)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	cl := NewClient(p, sk, 111)
	keys := GenEvaluationKeySet(p, kg, sk, nil, false)
	ev := NewEvaluator(p, keys, nil)

	// Degree-7 approximation of a smooth odd-ish function on [-1, 1].
	f := func(x float64) float64 { return 0.5 + 0.25*x - 0.02*x*x*x }
	c := ApproximateChebyshev(f, -1, 1, 7)

	v := make([]complex128, p.Slots)
	for i := range v {
		v[i] = complex(2*float64(i)/float64(p.Slots)-1, 0) // u ∈ [-1, 1)
	}
	ct := cl.Encrypt(v)
	out := ev.EvalChebyshev(ct, c)
	got := cl.Decrypt(out)
	for i := range v {
		want := f(real(v[i]))
		if e := cmplx.Abs(got[i] - complex(want, 0)); e > 1e-3 {
			t.Fatalf("slot %d (u=%g): got %v want %g (err %g)", i, real(v[i]), got[i], want, e)
		}
	}
}

func TestEvalChebyshevDegree27ReLU(t *testing.T) {
	if testing.Short() {
		t.Skip("deep polynomial evaluation is slow")
	}
	// The Lee et al. ResNet schedule evaluates a degree-27 polynomial ReLU;
	// check our evaluator survives that depth with adequate accuracy away
	// from the kink.
	p := testParams(7, 14, 64)
	kg := rlwe.NewKeyGenerator(p.Parameters, 112)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	cl := NewClient(p, sk, 113)
	keys := GenEvaluationKeySet(p, kg, sk, nil, false)
	ev := NewEvaluator(p, keys, nil)

	relu := func(x float64) float64 { return math.Max(0, x) }
	c := ApproximateChebyshev(relu, -1, 1, 27)
	v := make([]complex128, p.Slots)
	for i := range v {
		v[i] = complex(2*float64(i)/float64(p.Slots)-1, 0)
	}
	ct := cl.Encrypt(v)
	out := ev.EvalChebyshev(ct, c)
	got := cl.Decrypt(out)
	for i := range v {
		x := real(v[i])
		if math.Abs(x) < 0.15 {
			continue // the kink region needs much higher degree
		}
		if e := cmplx.Abs(got[i] - complex(relu(x), 0)); e > 0.03 {
			t.Fatalf("slot %d (x=%g): ReLU approx error %g", i, x, e)
		}
	}
}

func TestInnerSum(t *testing.T) {
	p := testParams(6, 3, 32)
	kg := rlwe.NewKeyGenerator(p.Parameters, 114)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	cl := NewClient(p, sk, 115)
	rot := []int{}
	for r := 1; r < p.Slots; r <<= 1 {
		rot = append(rot, r)
	}
	keys := GenEvaluationKeySet(p, kg, sk, rot, false)
	ev := NewEvaluator(p, keys, nil)

	v := rampVector(p.Slots)
	var want complex128
	for _, x := range v {
		want += x
	}
	ct := cl.Encrypt(v)
	got := cl.Decrypt(ev.InnerSum(ct, p.Slots))
	for i := range got {
		if e := cmplx.Abs(got[i] - want); e > 1e-4 {
			t.Fatalf("slot %d: inner sum %v want %v", i, got[i], want)
		}
	}
}

// Eval evaluates the series at a plaintext point (the plaintext reference of the tests),
// mapping x from [a,b] handled by the caller: the argument here is the
// normalized u ∈ [-1, 1].
func (c *Chebyshev) Eval(u float64) complex128 {
	// Clenshaw recurrence.
	var b1, b2 complex128
	for k := len(c.Coeffs) - 1; k >= 1; k-- {
		b1, b2 = c.Coeffs[k]+complex(2*u, 0)*b1-b2, b1
	}
	return c.Coeffs[0] + complex(u, 0)*b1 - b2
}
