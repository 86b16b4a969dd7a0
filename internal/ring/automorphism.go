package ring

// Automorphism applies the Galois automorphism X → X^g (g odd) to a
// polynomial in coefficient representation: coefficient i moves to position
// i·g mod 2N with a sign flip when it wraps past N. This is the index-mapping
// operation the paper's automorph unit performs for CKKS Rotate (§IV-A,
// i_r = i·5^r mod N family of maps).
func (r *Ring) Automorphism(p Poly, g uint64, out Poly) {
	n := uint64(r.N)
	mask := 2*n - 1
	g &= mask
	q := r.Mod.Q
	// k = i·g mod 2N is carried as a running sum (2N is a power of two), and
	// the wrap past N selects v or −v without a branch: this runs 2·level
	// times per repack merge.
	k := uint64(0)
	for _, v := range p[:n] {
		neg := (q - v) & -((v | -v) >> 63) // −v mod q, with −0 = 0
		wrap := -(k >> uint(r.LogN) & 1)   // all ones iff k ≥ N
		out[k&(n-1)] = v ^ (v^neg)&wrap
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
		e := (2*bitReverse(j, r.LogN) + 1) * g % twoN
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

// MonomialNTT writes the NTT (evaluation) representation of the monomial X^k
// into out, for any k (reduced mod 2N; X^N = −1). Pointwise multiplication by
// this table realizes MulByMonomial directly in the evaluation domain —
// slot j holds ψ^{k·e_j} where e_j is the slot's evaluation exponent — and is
// bit-identical to the INTT→MulByMonomial→NTT round-trip it replaces, since
// both compute the same residues and emit canonical representatives.
func (r *Ring) MonomialNTT(k int, out Poly) {
	n := r.N
	k = ((k % (2 * n)) + 2*n) % (2 * n)
	out.Zero()
	if k < n {
		out[k] = 1
	} else {
		out[k-n] = r.Mod.Q - 1
	}
	r.NTT(out)
}

// MulByMonomial multiplies p (coefficient representation) by X^k in the
// negacyclic ring, for any k in [0, 2N). This is the TFHE rotation unit of
// §IV-A: coefficients shift by k positions and flip sign when wrapping,
// since X^N = -1.
func (r *Ring) MulByMonomial(p Poly, k int, out Poly) {
	tmp := make(Poly, r.N)
	r.MulByMonomialInto(p, k, tmp)
	copy(out, tmp)
}

// MulByMonomialInto is MulByMonomial writing directly into out, which must
// not alias p. Every output position is written exactly once, so no
// temporary is needed — this is the allocation-free rotation of the
// BlindRotate hot path.
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
