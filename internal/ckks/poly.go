package ckks

import (
	"math"

	"heap/internal/rlwe"
)

// Polynomial evaluation over encrypted slots — the workhorse behind the
// non-linear activations of the paper's workloads (HELR's polynomial
// sigmoid, Lee et al.'s degree-27 ReLU approximation) and the sine
// evaluation inside the conventional bootstrap.

// Chebyshev holds the coefficients of Σ c_k·T_k(x) on [-1, 1].
type Chebyshev struct {
	Coeffs []complex128
}

// ApproximateChebyshev fits a degree-d Chebyshev series to f on [a, b]
// using the standard cosine-node projection.
func ApproximateChebyshev(f func(float64) float64, a, b float64, degree int) *Chebyshev {
	nodes := 4 * (degree + 1)
	fv := make([]float64, nodes)
	for j := 0; j < nodes; j++ {
		theta := math.Pi * (float64(j) + 0.5) / float64(nodes)
		x := math.Cos(theta)
		fv[j] = f(a + (b-a)*(x+1)/2)
	}
	c := &Chebyshev{Coeffs: make([]complex128, degree+1)}
	for k := 0; k <= degree; k++ {
		sum := 0.0
		for j := 0; j < nodes; j++ {
			theta := math.Pi * (float64(j) + 0.5) / float64(nodes)
			sum += fv[j] * math.Cos(float64(k)*theta)
		}
		sum *= 2 / float64(nodes)
		if k == 0 {
			sum /= 2
		}
		c.Coeffs[k] = complex(sum, 0)
	}
	return c
}

// EvalChebyshev homomorphically evaluates the series on a ciphertext whose
// slot values are already normalized to [-1, 1]. Chebyshev basis
// polynomials are built with the stable doubling identities
// T_{2k} = 2T_k² − 1 and T_{2k+1} = 2T_k·T_{k+1} − T_1, giving logarithmic
// multiplicative depth; every term is aligned to scale Δ via
// MulConstToScale so additions stay exact.
func (ev *Evaluator) EvalChebyshev(ct *rlwe.Ciphertext, c *Chebyshev) *rlwe.Ciphertext {
	delta := ev.Params.DefaultScale
	degree := len(c.Coeffs) - 1
	if degree < 1 {
		out := rlwe.NewCiphertext(ev.Params.Parameters, ct.Level())
		out.Scale = ct.Scale
		return ev.AddConst(out, c.Coeffs[0])
	}
	// Build T_1..T_degree, pinning every node to scale Δ (one extra
	// constant multiplication per node) so the scale cannot collapse
	// double-exponentially along deep doubling chains.
	ts := make([]*rlwe.Ciphertext, degree+1)
	if r := ct.Scale / delta; r > 0.99 && r < 1.01 {
		ts[1] = ct.CopyNew()
		ts[1].Scale = delta
	} else {
		ts[1] = ev.MulConstToScale(ct, 1, delta)
	}
	for k := 2; k <= degree; k++ {
		half := k / 2
		var t *rlwe.Ciphertext
		if k%2 == 0 {
			// T_{2h} = 2·T_h² − 1
			a := ts[half]
			t = ev.MulConstToScale(ev.MulRelinRescale(a, a), 2, delta)
			t = ev.AddConst(t, complex(-1, 0))
		} else {
			// T_{2h+1} = 2·T_h·T_{h+1} − T_1
			a, b := ts[half], ts[half+1]
			a, b = alignLevels(ev, a, b)
			t = ev.MulConstToScale(ev.MulRelinRescale(a, b), 2, delta)
			t1 := ts[1]
			if t1.Level() > t.Level() {
				t1 = ev.DropLevels(t1, t1.Level()-t.Level())
			}
			t = ev.Sub(t, t1)
		}
		ts[k] = t
	}
	// Find the lowest level among the basis polynomials.
	low := ts[1].Level()
	for k := 2; k <= degree; k++ {
		if ts[k].Level() < low {
			low = ts[k].Level()
		}
	}
	target := low - 1
	var acc *rlwe.Ciphertext
	for k := 1; k <= degree; k++ {
		if c.Coeffs[k] == 0 {
			continue
		}
		tk := ts[k]
		if tk.Level() > target+1 {
			tk = ev.DropLevels(tk, tk.Level()-(target+1))
		}
		term := ev.MulConstToScale(tk, c.Coeffs[k], delta)
		if acc == nil {
			acc = term
		} else {
			acc = ev.Add(acc, term)
		}
	}
	return ev.AddConst(acc, c.Coeffs[0])
}

// alignLevels drops the deeper operand so both sit at a common level.
func alignLevels(ev *Evaluator, a, b *rlwe.Ciphertext) (*rlwe.Ciphertext, *rlwe.Ciphertext) {
	if a.Level() > b.Level() {
		a = ev.DropLevels(a, a.Level()-b.Level())
	} else if b.Level() > a.Level() {
		b = ev.DropLevels(b, b.Level()-a.Level())
	}
	// Multiplication tolerates scale differences (tracked exactly); only
	// additions need matching, handled by callers.
	return a, b
}

// InnerSum rotates-and-adds so every slot holds the sum of all n slots
// (n a power of two) — the reduction used by the LR gradient and the
// average-pooling layer of ResNet.
func (ev *Evaluator) InnerSum(ct *rlwe.Ciphertext, n int) *rlwe.Ciphertext {
	out := ct
	for r := 1; r < n; r <<= 1 {
		out = ev.Add(out, ev.Rotate(out, r))
	}
	return out
}
