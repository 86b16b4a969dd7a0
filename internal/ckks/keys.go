package ckks

import (
	"sync"
	"sync/atomic"

	"heap/internal/rlwe"
)

// EvaluationKeySet is the public evaluation material of one secret — the
// relinearization key and the Galois keys of a fixed set of rotations (and
// conjugation) — held as a promise: each key is generated the first time an
// operation asks for it and kept from then on, so a set holds only the keys
// its evaluators have used.
//
// Every key has a generator of its own, seeded by the set's base seed mixed
// with the key's Galois element (relinTag for the relinearization key), so a
// key's words depend on nothing but that pair: lazy, eager and concurrent
// generation give the same bytes in any order.
//
// A set that can still make a key holds the secret key, and must not be
// handed to another party. GenEvaluationKeySet returns one that holds every
// key and no secret.
type EvaluationKeySet struct {
	params *Parameters
	sk     *rlwe.SecretKey // nil once every key is made
	seed   uint64
	rlk    promisedKey
	// galois is built by NewEvaluationKeySet and never written after, so a
	// lookup takes no lock; each key's once guards its own generation.
	galois map[uint64]*promisedKey
	made   atomic.Int32 // keys generated so far
}

// promisedKey is one key of a set, made on first use.
type promisedKey struct {
	once sync.Once
	key  *rlwe.GadgetCiphertext
}

// relinTag stands in for the Galois element in the relinearization key's
// seed: Galois elements are odd, so 0 names no automorphism.
const relinTag = 0

// NewEvaluationKeySet promises the relinearization key plus Galois keys for
// the given slot rotations (and conjugation if conj is set), and generates
// none of them. It draws the set's base seed from kg and keeps sk.
func NewEvaluationKeySet(params *Parameters, kg *rlwe.KeyGenerator, sk *rlwe.SecretKey, rotations []int, conj bool) *EvaluationKeySet {
	ks := &EvaluationKeySet{params: params, sk: sk, seed: kg.DrawSeed(), galois: map[uint64]*promisedKey{}}
	r0 := params.QBasis.Rings[0]
	for _, k := range rotations {
		ks.galois[r0.GaloisElementForRotation(k)] = &promisedKey{}
	}
	if conj {
		ks.galois[r0.GaloisElementConjugate()] = &promisedKey{}
	}
	return ks
}

// GenEvaluationKeySet creates the relinearization key plus Galois keys for
// the given slot rotations (and conjugation if conj is set): the keys
// NewEvaluationKeySet promises, every one made, in a set that holds no
// secret.
func GenEvaluationKeySet(params *Parameters, kg *rlwe.KeyGenerator, sk *rlwe.SecretKey, rotations []int, conj bool) *EvaluationKeySet {
	ks := NewEvaluationKeySet(params, kg, sk, rotations, conj)
	ks.relin()
	for g := range ks.galois {
		ks.galoisKey(g)
	}
	ks.sk = nil
	return ks
}

// relin returns the relinearization key, making it on first use.
func (ks *EvaluationKeySet) relin() *rlwe.GadgetCiphertext { return ks.force(&ks.rlk, relinTag) }

// galoisKey returns the key of Galois element g, making it on first use, and
// false if the set does not promise it.
func (ks *EvaluationKeySet) galoisKey(g uint64) (*rlwe.GadgetCiphertext, bool) {
	k, ok := ks.galois[g]
	if !ok {
		return nil, false
	}
	return ks.force(k, g), true
}

// force returns k, generating it on first use from the seed of tag, its
// Galois element or relinTag.
func (ks *EvaluationKeySet) force(k *promisedKey, tag uint64) *rlwe.GadgetCiphertext {
	k.once.Do(func() {
		kg := rlwe.NewKeyGenerator(ks.params.Parameters, keySeed(ks.seed, tag))
		if tag == relinTag {
			k.key = kg.GenRelinearizationKey(ks.sk)
		} else {
			k.key = kg.GenGaloisKey(tag, ks.sk)
		}
		ks.made.Add(1)
	})
	return k.key
}

// keySeed mixes a set's base seed with a key's tag through splitmix64's
// finaliser, so that no two keys of a set share a generator stream.
func keySeed(base, tag uint64) uint64 {
	z := base + (tag+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
