package ring

import "sync"

// Automorphism applies the Galois automorphism X → X^g (g odd) to a
// polynomial in coefficient representation: coefficient i moves to position
// i·g mod 2N with a sign flip when it wraps past N. This is the index-mapping
// operation the paper's automorph unit performs for CKKS Rotate (§IV-A,
// i_r = i·5^r mod N family of maps). out must not alias p.
func (r *Ring) Automorphism(p Poly, g uint64, out Poly) {
	n := uint64(r.N)
	mask := 2*n - 1
	g &= mask
	q := r.Mod.Q
	p, out = p[:n], out[:n]
	// k = i·g mod 2N is carried as a running sum (2N is a power of two), and
	// bit N of it is the wrap: every value the loop needs lives in a
	// register, and the store index is provably in range.
	k := uint64(0)
	for _, v := range p {
		if k&n != 0 && v != 0 {
			v = q - v
		}
		out[k&(n-1)] = v
		k = (k + g) & mask
	}
}

// AutomorphismAdd adds σ_g(p) to out: out[i·g mod 2N] += ±p[i], the sign
// flipping past N, for canonical p and out — Automorphism followed by Add,
// word for word, in one pass and without the permuted temporary. A wrapped
// zero enters the sum as q, which the reduction folds back, so the loop
// needs no zero test. out must not alias p.
func (r *Ring) AutomorphismAdd(p Poly, g uint64, out Poly) {
	n := uint64(r.N)
	mask := 2*n - 1
	g &= mask
	q := r.Mod.Q
	p, out = p[:n], out[:n]
	k := uint64(0)
	for _, v := range p {
		if k&n != 0 {
			v = q - v
		}
		j := k & (n - 1)
		s := out[j] + v
		if s >= q {
			s -= q
		}
		out[j] = s
		k = (k + g) & mask
	}
}

// AutomorphismNTTIndex precomputes the slot permutation realizing X → X^g
// directly on NTT-representation polynomials: out[j] = in[perm[j]].
func (r *Ring) AutomorphismNTTIndex(g uint64) []uint64 {
	n := uint64(r.N)
	twoN := 2 * n
	g %= twoN
	perm := make([]uint64, n)
	for j := uint64(0); j < n; j++ {
		e := uint64(r.slotExp[j]) * g % twoN
		perm[j] = bitReverse((e-1)/2, r.LogN)
	}
	return perm
}

// AutomorphismNTT applies X → X^g to a polynomial in NTT representation
// using a permutation previously computed by AutomorphismNTTIndex.
func (r *Ring) AutomorphismNTT(p Poly, perm []uint64, out Poly) {
	for j := range out {
		out[j] = p[perm[j]]
	}
}

// GaloisElementForRotation returns the Galois element g = 5^k mod 2N whose
// automorphism realizes a rotation of the CKKS slot vector by k positions
// (negative k rotates the other way). GaloisElementConjugate (g = 2N-1)
// realizes complex conjugation of the slots.
func (r *Ring) GaloisElementForRotation(k int) uint64 {
	twoN := uint64(2 * r.N)
	kk := uint64(((k % r.N) + r.N) % r.N)
	g := uint64(1)
	base := uint64(5)
	for i := uint64(0); i < kk; i++ {
		g = g * base % twoN
	}
	return g
}

// GaloisElementConjugate returns the Galois element realizing complex
// conjugation on CKKS slots: X → X^{2N-1}.
func (r *Ring) GaloisElementConjugate() uint64 { return uint64(2*r.N) - 1 }

// MonomialsMinusOneNTT writes the NTT (evaluation) representations of the two
// blind-rotation factors of one mask element, X^k − 1 into plus and X^{−k} − 1
// into minus, for any k (reduced mod 2N; X^N = −1), without a transform:
// slot j of NTT(X^k) is ψ^{k·e_j}, where e_j = 2·brv(j)+1 is the slot's
// evaluation exponent (the one AutomorphismNTTIndex permutes by), so each
// slot is one lookup in the natural-order ψ^i table — ψ^{i+N} = −ψ^i — and the
// second factor reads the same table at 2N − i. Both outputs are canonical
// and word for word what NTT(X^{±k}) − 1 gives.
func (r *Ring) MonomialsMinusOneNTT(k int, plus, minus Poly) {
	n := uint64(r.N)
	mask := 2*n - 1
	kk := uint64(k) & mask // two's complement: k mod 2N for negative k too
	q := r.Mod.Q
	pow := r.psiPow
	plus = plus[:n]
	minus = minus[:n]
	for j, e := range r.slotExp[:n] {
		idx := kk * uint64(e) & mask
		plus[j] = signedPow(pow, idx, n, q) - 1
		minus[j] = signedPow(pow, (2*n-idx)&mask, n, q) - 1
	}
}

// signedPow returns ψ^idx for idx ∈ [0, 2N) from the natural-order table of
// the first N powers: ψ^idx for idx < N, q − ψ^{idx−N} past it. Never zero.
func signedPow(pow []uint64, idx, n, q uint64) uint64 {
	w := pow[idx&(n-1)]
	if idx >= n {
		return q - w
	}
	return w
}

// slotExponents returns e_j = 2·brv(j)+1 for j ∈ [0, N): NTT slot j holds the
// evaluation at ψ^{e_j}. The vector depends on the degree only, so every ring
// of one degree shares it (read-only once built).
func slotExponents(logN int) []uint32 {
	slotExpMu.Lock()
	defer slotExpMu.Unlock()
	if e, ok := slotExpByLogN[logN]; ok {
		return e
	}
	e := make([]uint32, 1<<logN)
	for j := range e {
		e[j] = uint32(2*bitReverse(uint64(j), logN) + 1)
	}
	slotExpByLogN[logN] = e
	return e
}

var (
	slotExpMu     sync.Mutex
	slotExpByLogN = map[int][]uint32{}
)

// MulByMonomialInto multiplies p (coefficient representation) by X^k in the
// negacyclic ring into out, for any k (reduced mod 2N): coefficients shift by
// k positions and flip sign when wrapping, since X^N = −1 — the TFHE rotation
// unit of §IV-A. out must not alias p: every output position is written
// exactly once, straight from p, so no temporary is needed and the
// BlindRotate hot path allocates nothing here.
func (r *Ring) MulByMonomialInto(p Poly, k int, out Poly) {
	n := r.N
	k = ((k % (2 * n)) + 2*n) % (2 * n)
	q := r.Mod.Q
	neg := false
	if k >= n {
		k -= n
		neg = true
	}
	for i := 0; i < n; i++ {
		v := p[i]
		flip := neg
		j := i + k
		if j >= n {
			j -= n
			flip = !flip
		}
		if flip && v != 0 {
			v = q - v
		}
		out[j] = v
	}
}

// MulByMonomialMinusOneInto sets out = (X^k − 1)·p for p in coefficient
// representation, any k (reduced mod 2N) — the rotated difference a CMux
// decomposes, MulByMonomialInto followed by Sub, word for word, in two
// segment sweeps and without the rotated temporary. With s = k mod N, X^s·p
// is p[:N−s] moved up by s and −p[N−s:] wrapped to the front, and k ≥ N
// negates it; so one segment of out is a difference of p with itself shifted
// and the other a negated sum. out must not alias p.
func (r *Ring) MulByMonomialMinusOneInto(p Poly, k int, out Poly) {
	n := r.N
	k = (k%(2*n) + 2*n) % (2 * n)
	s := k % n
	p, out = p[:n], out[:n]
	top, low := p[n-s:], p[:n-s]
	if k < n {
		r.negAdd(top, p[:s], out[:s])
		r.Sub(low, p[s:], out[s:])
		return
	}
	r.Sub(top, p[:s], out[:s])
	r.negAdd(low, p[s:], out[s:])
}
