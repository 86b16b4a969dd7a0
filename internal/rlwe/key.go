package rlwe

import (
	"math/big"

	"heap/internal/ring"
	"heap/internal/rns"
)

// SecretDist selects the secret-key distribution.
type SecretDist int

const (
	// SecretTernary is the uniform ternary distribution, the non-sparse
	// CKKS key distribution the paper mandates (§II).
	SecretTernary SecretDist = iota
	// SecretBinary is the uniform binary distribution, used for the small
	// LWE secret of dimension n_t in the scheme-switching pipeline.
	SecretBinary
)

// SecretKey is an RLWE secret: its signed coefficient vector plus its
// NTT-form residues over the full Q‖P basis.
type SecretKey struct {
	Signed []int64  // coefficients in {-1,0,1}
	NTTQP  rns.Poly // s mod every q_i and p_j, NTT representation
	params *Parameters
}

// LWESecretKey is a plain LWE secret of dimension n over a single modulus.
type LWESecretKey struct {
	Signed []int64
	// Dist is the distribution Signed was drawn from. It, not the sampled
	// values, decides the kind of blind-rotate key the secret gets: a ternary
	// secret that happens to draw no −1 is still ternary.
	Dist SecretDist
}

// KeyGenerator produces all key material deterministically from a sampler.
type KeyGenerator struct {
	params  *Parameters
	sampler *ring.Sampler
	// factors[j][i] is gadget digit j's factor (GadgetFactors) modulo QP
	// limb i.
	factors [][]uint64
}

// NewKeyGenerator returns a key generator bound to the parameters and seed.
func NewKeyGenerator(params *Parameters, seed uint64) *KeyGenerator {
	kg := &KeyGenerator{params: params, sampler: ring.NewSampler(seed)}
	for _, f := range params.GadgetFactors() {
		row := make([]uint64, params.QPBasis.Level())
		for i, r := range params.QPBasis.Rings {
			row[i] = new(big.Int).Mod(f, new(big.Int).SetUint64(r.Mod.Q)).Uint64()
		}
		kg.factors = append(kg.factors, row)
	}
	return kg
}

// DrawSeed draws a 64-bit seed from the generator's stream, for key
// material another generator makes later from it.
func (kg *KeyGenerator) DrawSeed() uint64 { return kg.sampler.Uint64() }

// GenSecretKey samples a fresh RLWE secret with the given distribution.
func (kg *KeyGenerator) GenSecretKey(dist SecretDist) *SecretKey {
	n := kg.params.N()
	var signed []int64
	switch dist {
	case SecretTernary:
		signed = kg.sampler.TernarySigned(n)
	case SecretBinary:
		signed = kg.sampler.BinarySigned(n)
	default:
		panic("rlwe: unknown secret distribution")
	}
	return kg.secretFromSigned(signed)
}

func (kg *KeyGenerator) secretFromSigned(signed []int64) *SecretKey {
	sk := &SecretKey{Signed: signed, params: kg.params}
	sk.NTTQP = kg.params.QPBasis.NewPoly()
	kg.params.QPBasis.SetSigned(signed, sk.NTTQP)
	kg.params.QPBasis.NTT(sk.NTTQP)
	return sk
}

// GenLWESecretKey samples an n-dimensional LWE secret.
func (kg *KeyGenerator) GenLWESecretKey(n int, dist SecretDist) *LWESecretKey {
	switch dist {
	case SecretTernary:
		return &LWESecretKey{Signed: kg.sampler.TernarySigned(n), Dist: dist}
	case SecretBinary:
		return &LWESecretKey{Signed: kg.sampler.BinarySigned(n), Dist: dist}
	}
	panic("rlwe: unknown secret distribution")
}

// HammingWeight returns ‖s‖₁, which bounds the wrap-around multiple the
// scheme-switching bootstrap must evaluate (see internal/core).
func (k *LWESecretKey) HammingWeight() int {
	h := 0
	for _, v := range k.Signed {
		if v != 0 {
			h++
		}
	}
	return h
}
