// Package rlwe implements the shared (R)LWE substrate on which both the CKKS
// and TFHE schemes of this library are built: secret keys, RLWE ciphertexts,
// hybrid RNS gadget ciphertexts, key switching, automorphisms, external
// products, LWE extraction (the paper's Extract, Eq. 2), LWE key switching,
// LWE modulus switching, and the automorphism-based LWE→RLWE repacking of
// Chen et al. [11] used by the HEAP bootstrapper.
//
// The paper's §IV-A observation that "basis conversion in the CKKS KeySwitch
// follows the same datapath as the ExternalProduct" is mirrored here: both
// operations are built from the same gadget-decomposition + MAC + ModDown
// kernel.
package rlwe

import (
	"fmt"
	"math"
	"math/big"

	"heap/internal/ring"
	"heap/internal/rns"
)

// Parameters fixes a ring degree, a ciphertext modulus chain Q, a special
// modulus chain P (for hybrid key switching / external products) and the
// gadget decomposition number.
type Parameters struct {
	LogN  int
	Q     []uint64 // ciphertext primes q_0 … q_{L-1}
	P     []uint64 // special primes
	Sigma float64  // error standard deviation
	Dnum  int      // gadget decomposition number d (§III-C: d = 2)

	QBasis  *rns.Basis
	PBasis  *rns.Basis
	QPBasis *rns.Basis // view over Q ‖ P (shares ring tables)
}

// NewParameters validates and precomputes a parameter set.
func NewParameters(logN int, q, p []uint64, sigma float64, dnum int) (*Parameters, error) {
	if logN < 2 || logN > 17 {
		return nil, fmt.Errorf("rlwe: logN=%d out of range", logN)
	}
	if len(q) == 0 || len(p) == 0 {
		return nil, fmt.Errorf("rlwe: need at least one ciphertext and one special prime")
	}
	if dnum < 1 || dnum > len(q) {
		return nil, fmt.Errorf("rlwe: dnum=%d invalid for %d limbs", dnum, len(q))
	}
	seen := map[uint64]bool{}
	for _, m := range append(append([]uint64{}, q...), p...) {
		if seen[m] {
			return nil, fmt.Errorf("rlwe: duplicate modulus %d", m)
		}
		seen[m] = true
	}
	pr := &Parameters{LogN: logN, Q: q, P: p, Sigma: sigma, Dnum: dnum}
	// Hybrid key switching requires the special modulus P to cover the
	// largest gadget digit, or every key switch and external product adds
	// ≈ Q_digit/P of noise and destroys the plaintext.
	alpha := (len(q) + dnum - 1) / dnum
	digitBits, pBits := 0.0, 0.0
	for i, qi := range q {
		if i%alpha == 0 {
			if d := digitBitsOf(q[i:min(i+alpha, len(q))]); d > digitBits {
				digitBits = d
			}
		}
		_ = qi
	}
	pBits = digitBitsOf(p)
	if pBits+2 < digitBits {
		return nil, fmt.Errorf("rlwe: special modulus too small: log2(P)=%.0f < largest gadget digit log2(Q_j)=%.0f — increase P or dnum", pBits, digitBits)
	}
	pr.QBasis = rns.NewBasis(logN, q)
	pr.PBasis = rns.NewBasis(logN, p)
	rings := make([]*ring.Ring, 0, len(q)+len(p))
	rings = append(rings, pr.QBasis.Rings...)
	rings = append(rings, pr.PBasis.Rings...)
	pr.QPBasis = &rns.Basis{Rings: rings, LogN: logN, N: 1 << logN}
	return pr, nil
}

func digitBitsOf(primes []uint64) float64 {
	bits := 0.0
	for _, q := range primes {
		bits += math.Log2(float64(q))
	}
	return bits
}

// MustParameters is NewParameters that panics on error (for tests/examples).
func MustParameters(logN int, q, p []uint64, sigma float64, dnum int) *Parameters {
	pr, err := NewParameters(logN, q, p, sigma, dnum)
	if err != nil {
		panic(err)
	}
	return pr
}

// N returns the ring degree.
func (p *Parameters) N() int { return 1 << p.LogN }

// MaxLevel returns the number of ciphertext limbs L.
func (p *Parameters) MaxLevel() int { return len(p.Q) }

// Alpha returns the number of ciphertext limbs per gadget digit.
func (p *Parameters) Alpha() int { return (len(p.Q) + p.Dnum - 1) / p.Dnum }

// DigitsAtLevel returns how many gadget digits a level-sized decomposition
// produces.
func (p *Parameters) DigitsAtLevel(level int) int {
	a := p.Alpha()
	return (level + a - 1) / a
}

// BigQ returns the full ciphertext modulus ∏ q_i.
func (p *Parameters) BigQ() *big.Int { return p.QBasis.Modulus() }

// BigP returns the special modulus ∏ p_i.
func (p *Parameters) BigP() *big.Int { return p.PBasis.Modulus() }
