package ckks

import (
	"slices"

	"heap/internal/rlwe"
)

// Bridges to the external package ckks_test (keys_test.go), whose tests
// build their sets through heap.NewContext.

// RelinTag is the tag Force takes for the relinearization key.
const RelinTag = relinTag

// Made reports how many of the set's keys have been generated.
func (ks *EvaluationKeySet) Made() int { return int(ks.made.Load()) }

// HoldsSecret reports whether the set can still generate a key.
func (ks *EvaluationKeySet) HoldsSecret() bool { return ks.sk != nil }

// Tags returns the tag of every promised key: RelinTag, then the Galois
// elements in ascending order.
func (ks *EvaluationKeySet) Tags() []uint64 {
	tags := []uint64{relinTag}
	for g := range ks.galois {
		tags = append(tags, g)
	}
	slices.Sort(tags)
	return tags
}

// Force returns the key of tag, generating it on first use.
func (ks *EvaluationKeySet) Force(tag uint64) *rlwe.GadgetCiphertext {
	if tag == relinTag {
		return ks.relin()
	}
	k, ok := ks.galoisKey(tag)
	if !ok {
		panic("ckks: tag not promised")
	}
	return k
}
