// Package ckks implements the CKKS approximate homomorphic encryption
// scheme on the shared rlwe substrate: canonical-embedding encoding, the
// primitive operations of §II-A (PtAdd, Add, PtMult, Mult, Rescale, Rotate,
// Conjugate), homomorphic linear transforms, and the conventional CKKS
// bootstrapping pipeline of Figure 1(a) (ModRaise → CoeffToSlot → EvalMod →
// SlotToCoeff) that serves as the baseline HEAP's scheme-switching
// bootstrapper replaces.
package ckks

import (
	"fmt"

	"heap/internal/rlwe"
)

// Parameters wraps the RLWE parameter set with CKKS-specific metadata.
type Parameters struct {
	*rlwe.Parameters
	// DefaultScale is the plaintext scale Δ (§II-A: "the scale factor is
	// the size of one of the limbs of the ciphertext").
	DefaultScale float64
	// Slots is the default number of packed plaintext slots (≤ N/2).
	Slots int
}

// NewParameters builds a CKKS parameter set. slots must be a power of two
// no greater than N/2.
func NewParameters(logN int, q, p []uint64, sigma float64, dnum int, defaultScale float64, slots int) (*Parameters, error) {
	base, err := rlwe.NewParameters(logN, q, p, sigma, dnum)
	if err != nil {
		return nil, err
	}
	n := 1 << logN
	if slots <= 0 || slots > n/2 || slots&(slots-1) != 0 {
		return nil, fmt.Errorf("ckks: slots=%d invalid for N=%d", slots, n)
	}
	if defaultScale <= 1 {
		return nil, fmt.Errorf("ckks: scale must exceed 1")
	}
	return &Parameters{Parameters: base, DefaultScale: defaultScale, Slots: slots}, nil
}

// MustParameters panics on error.
func MustParameters(logN int, q, p []uint64, sigma float64, dnum int, defaultScale float64, slots int) *Parameters {
	pr, err := NewParameters(logN, q, p, sigma, dnum, defaultScale, slots)
	if err != nil {
		panic(err)
	}
	return pr
}
