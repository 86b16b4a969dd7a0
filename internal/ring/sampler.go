package ring

import (
	"math"
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
	return &Sampler{rng: rand.New(rand.NewChaCha8(key))}
}

// Uint64 returns a uniform 64-bit value.
func (s *Sampler) Uint64() uint64 { return s.rng.Uint64() }

// UniformMod returns a uniform value in [0, q).
func (s *Sampler) UniformMod(q uint64) uint64 { return s.rng.Uint64N(q) }

// UniformPoly fills p with uniform residues mod q.
func (s *Sampler) UniformPoly(r *Ring, p Poly) {
	q := r.Mod.Q
	for i := range p {
		p[i] = s.rng.Uint64N(q)
	}
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
	return out
}

// SignedToPoly encodes a signed integer vector into residues mod q.
func SignedToPoly(r *Ring, v []int64, p Poly) {
	q := r.Mod.Q
	for i := range p {
		x := v[i]
		if x >= 0 {
			p[i] = uint64(x) % q
		} else {
			p[i] = q - uint64(-x)%q
		}
	}
}

// CenteredRep returns the signed representative of x mod q in (-q/2, q/2].
func CenteredRep(x, q uint64) int64 {
	if x > q/2 {
		return int64(x) - int64(q)
	}
	return int64(x)
}
