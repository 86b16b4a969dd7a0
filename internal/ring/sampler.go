package ring

import (
	"math"
	"math/bits"
	"math/rand/v2"
)

// DefaultSigma is the standard deviation of the RLWE error distribution used
// throughout the library (the value used by essentially all CKKS/TFHE
// deployments and assumed by the paper's 128-bit-security parameter claims).
const DefaultSigma = 3.2

// Sampler draws all randomness for key generation and encryption from a
// seeded ChaCha8 stream, so every test and example in this repository is
// fully deterministic given its seed.
type Sampler struct {
	rng *rand.Rand
	// src is the stream behind rng. The uniform draws call it directly — a
	// concrete call instead of rng's interface dispatch — and take the same
	// words in the same order, so both views advance one stream.
	src *rand.ChaCha8
}

// NewSampler creates a deterministic sampler from a 64-bit seed.
func NewSampler(seed uint64) *Sampler {
	var key [32]byte
	for i := 0; i < 8; i++ {
		key[i] = byte(seed >> (8 * i))
		key[i+8] = byte(seed>>(8*i)) ^ 0x5a
		key[i+16] = byte(seed>>(8*i)) ^ 0xa5
		key[i+24] = byte(seed>>(8*i)) ^ 0xc3
	}
	src := rand.NewChaCha8(key)
	return &Sampler{rng: rand.New(src), src: src}
}

// Uint64 returns a uniform 64-bit value.
func (s *Sampler) Uint64() uint64 { return s.rng.Uint64() }

// UniformMod returns a uniform value in [0, q), q > 0.
func (s *Sampler) UniformMod(q uint64) uint64 {
	if q == 0 {
		panic("ring: uniform draw modulo 0")
	}
	if q&(q-1) == 0 {
		return s.src.Uint64() & (q - 1)
	}
	return s.lemireRetry(q, s.src.Uint64())
}

// UniformPoly fills p with uniform residues mod q. It is UniformMod per
// coefficient with the common case open-coded (a call per word costs ≈ 16 %
// of the draw, which bounds key generation): a modulus that is not a power
// of two takes the high word of x·q for a fresh x, redrawing only when the
// low word falls under 2⁶⁴ mod q — exactly rand.Rand.Uint64N (Lemire's
// method), word for word, so the stream and the residues are the ones
// Uint64N would give.
func (s *Sampler) UniformPoly(r *Ring, p Poly) {
	q := r.Mod.Q
	if q&(q-1) == 0 {
		for i := range p {
			p[i] = s.src.Uint64() & (q - 1)
		}
		return
	}
	for i := range p {
		x := s.src.Uint64()
		hi, lo := bits.Mul64(x, q)
		if lo < q {
			hi = s.lemireRetry(q, x)
		}
		p[i] = hi
	}
}

// lemireRetry finishes rand.Rand.Uint64N(q) for a modulus that is not a power
// of two, from its first draw x: the high word of x·q, unless the low word
// lies under the rejection threshold 2⁶⁴ mod q, in which case it draws again.
func (s *Sampler) lemireRetry(q, x uint64) uint64 {
	hi, lo := bits.Mul64(x, q)
	if lo < q {
		thresh := -q % q
		for lo < thresh {
			hi, lo = bits.Mul64(s.src.Uint64(), q)
		}
	}
	return hi
}

// TernarySigned returns a length-n uniform ternary secret as signed values:
// each is -1, 0 or 1 with probability 1/3. The paper explicitly avoids
// sparse secret keys (§II), so this is the CKKS key distribution used here;
// it is signed because the same secret is re-encoded under several moduli
// (RNS keys, LWE extraction).
func (s *Sampler) TernarySigned(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		switch s.rng.Uint64N(3) {
		case 0:
			out[i] = 0
		case 1:
			out[i] = 1
		default:
			out[i] = -1
		}
	}
	return out
}

// BinarySigned returns a length-n binary secret in {0, 1}. The LWE secret of
// dimension n_t in the scheme-switching pipeline is binary so that the
// wrap-around multiple stays within the valid range of the negacyclic test
// vector (‖s‖₁ ≤ n_t ≪ N/2).
func (s *Sampler) BinarySigned(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(s.rng.Uint64N(2))
	}
	return out
}

// GaussianSigned returns n samples from a rounded Gaussian with standard
// deviation sigma, truncated at 6 sigma.
func (s *Sampler) GaussianSigned(n int, sigma float64) []int64 {
	out := make([]int64, n)
	s.GaussianInto(out, sigma)
	return out
}

// GaussianInto fills out with the samples GaussianSigned(len(out), sigma)
// would return, drawing the same words.
func (s *Sampler) GaussianInto(out []int64, sigma float64) {
	bound := int64(math.Ceil(6 * sigma))
	for i := range out {
		for {
			v := int64(math.Round(s.rng.NormFloat64() * sigma))
			if v >= -bound && v <= bound {
				out[i] = v
				break
			}
		}
	}
}

// SignedToPoly encodes a signed integer vector into residues mod q. A value
// with |x| < q — every error, secret and message coefficient this tree
// encodes — converts without a division or a branch on its sign: x, plus q
// when x is negative. Only a value outside (−q, q) takes the remainder.
func SignedToPoly(r *Ring, v []int64, p Poly) {
	q := r.Mod.Q
	v = v[:len(p)]
	for i, x := range v {
		u := uint64(x) + q&uint64(x>>63)
		if u >= q {
			u = signedMod(x, q)
		}
		p[i] = u
	}
}

// signedMod returns x mod q in [0, q) for any x, math.MinInt64 included
// (whose negation wraps to itself, 2⁶³ as an unsigned magnitude).
func signedMod(x int64, q uint64) uint64 {
	if x >= 0 {
		return uint64(x) % q
	}
	if m := uint64(-x) % q; m != 0 {
		return q - m
	}
	return 0
}

// CenteredRep returns the signed representative of x mod q in (-q/2, q/2].
func CenteredRep(x, q uint64) int64 {
	if x > q/2 {
		return int64(x) - int64(q)
	}
	return int64(x)
}
