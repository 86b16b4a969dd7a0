package rlwe

import (
	"fmt"
	"sync"

	"heap/internal/obs"
	"heap/internal/ring"
	"heap/internal/rns"
)

// PackingKeys holds the Galois keys for the automorphisms X → X^{2^j+1}
// used by the Chen et al. [11] repacking algorithm (the "efficient repacking
// technique using an automorph operation" the paper adopts, §II-B).
type PackingKeys struct {
	Keys map[uint64]*GadgetCiphertext // galois element → key
}

// GenPackingKeys generates the log₂(N) Galois keys X → X^{2^j+1} needed to
// pack any power-of-two count of ciphertexts: log₂(count) merge steps plus
// log₂(N/count) trailing trace steps.
func (kg *KeyGenerator) GenPackingKeys(sk *SecretKey) *PackingKeys {
	var gs []uint64
	for step := 2; step <= kg.params.N(); step <<= 1 {
		gs = append(gs, uint64(step+1)) // automorphism X → X^{2^ℓ+1}
	}
	pk := &PackingKeys{Keys: make(map[uint64]*GadgetCiphertext, len(gs))}
	for k, key := range kg.GenGaloisKeys(gs, sk) {
		pk.Keys[gs[k]] = key
	}
	return pk
}

// SizeBytes returns the in-memory size of the packing keys' coefficient
// data.
func (pk *PackingKeys) SizeBytes() int {
	total := 0
	for _, k := range pk.Keys {
		total += k.SizeBytes()
	}
	return total
}

// Repacker executes the repacking merge tree and trace. The whole repack
// lives in the coefficient domain, the representation blind rotation emits
// and the gadget decomposition consumes: the X^{N/2^ℓ} rotation of the odd
// branch is a signed shift, σ_g a signed permutation, and every key switch
// decomposes its input as it stands and emits coefficients through the
// linear ModDown — so a merge or trace step spends transforms only on the
// digit raise and the ModDown, and the caller NTTs the packed result once.
//
// Every map in the chain is exact on canonical residues, so the output is the
// INTT of what the retired NTT-domain tree produced, bit for bit (the
// references in pack_test.go). The tree shape and each node's arithmetic are
// fixed by the ciphertext count alone: the serial reference in pack_test.go
// walks it node after node, and the streaming core.MergeCollector — which drives MergePair in arrival order
// from many goroutines — reaches the same words.
type Repacker struct {
	ks *KeySwitcher
	pk *PackingKeys

	// scratch pools the key-switch arenas (width 1) merge nodes and traces
	// run in; every temporary of a step lives in the arena, so a warm one
	// serves any level without allocating.
	scratch sync.Pool // *Scratch
}

// NewRepacker builds a Repacker over the given key switcher and packing
// keys. The Repacker is safe for concurrent use by multiple goroutines.
func NewRepacker(ks *KeySwitcher, pk *PackingKeys) *Repacker {
	rp := &Repacker{ks: ks, pk: pk}
	rp.scratch.New = func() any { return ks.NewScratch() }
	return rp
}

// Trace applies σ_{2^j+1} for 2^j = 2·count … N to the coefficient-form
// ciphertext out in place: coefficients at stride N/count are fixed and
// doubled at every step (total factor N/count); all other coefficients
// cancel. With count = N it is a no-op. The loop is serial — each step's
// automorphism consumes the previous step's output — so it is the one part of
// a repack with no sibling work to fill the other cores: its arena runs at the
// key switcher's width for the duration, and each step's limb tasks fan out.
func (rp *Repacker) Trace(out *Ciphertext, count int) (*Ciphertext, error) {
	n := rp.ks.params.N()
	if count < 1 || count&(count-1) != 0 || count > n {
		return nil, fmt.Errorf("rlwe: trace needs a power-of-two count in [1, %d], got %d", n, count)
	}
	if out.IsNTT {
		return nil, fmt.Errorf("rlwe: trace input is in NTT representation")
	}
	for step := 2 * count; step <= n; step <<= 1 {
		if _, ok := rp.pk.Keys[uint64(step+1)]; !ok {
			return nil, fmt.Errorf("rlwe: missing packing key for galois element %d", step+1)
		}
	}
	if 2*count > n {
		return out, nil // no step to run: leave the arena pool alone
	}
	sc := rp.scratch.Get().(*Scratch)
	sc.width = rp.ks.width()
	c0 := sc.t[0].AtLevel(out.Level()) // C0 is scattered into itself from a copy
	for step := 2 * count; step <= n; step <<= 1 {
		for i, limb := range out.C0.Limbs {
			copy(c0.Limbs[i], limb)
		}
		rp.addRotated(out, [2]rns.Poly{c0, out.C1}, uint64(step+1), rp.pk.Keys[uint64(step+1)], sc)
	}
	sc.width = 1
	rp.scratch.Put(sc)
	return out, nil
}

// MergePair merges sibling nodes whose combined subtree spans c leaves:
//
//	out = (E + X^{N/c}·O) + σ_{c+1}(E − X^{N/c}·O)
//
// Both inputs (coefficient form) are consumed; the result lands in (and
// aliases) e's storage. This is the unit of work the streaming
// core.MergeCollector schedules as accumulators arrive.
func (rp *Repacker) MergePair(e, o *Ciphertext, c int) (*Ciphertext, error) {
	if c < 2 || c&(c-1) != 0 || c > rp.ks.params.N() {
		return nil, fmt.Errorf("rlwe: merge span must be a power of two in [2, %d], got %d", rp.ks.params.N(), c)
	}
	if e.Level() != o.Level() {
		return nil, fmt.Errorf("rlwe: merge siblings at mixed levels (%d vs %d)", e.Level(), o.Level())
	}
	if e.IsNTT || o.IsNTT {
		return nil, fmt.Errorf("rlwe: merge siblings must be in coefficient representation")
	}
	gk, ok := rp.pk.Keys[uint64(c+1)]
	if !ok {
		return nil, fmt.Errorf("rlwe: missing packing key for galois element %d", c+1)
	}
	sc := rp.scratch.Get().(*Scratch)
	rp.mergePair(e, o, c, gk, sc)
	rp.scratch.Put(sc)
	return e, nil
}

// mergePair is the merge kernel; allocation-free with a warm arena. The
// difference branch lands in the arena (the key switch's input) and the sum in
// e's storage. A merge node is not fanned out: the tree's nodes are already
// spread over the collector's callers.
func (rp *Repacker) mergePair(e, o *Ciphertext, c int, gk *GadgetCiphertext, sc *Scratch) {
	ks := rp.ks
	ks.rec.Add(obs.CounterMerge, 1)
	level := e.Level()
	diff := [2]rns.Poly{sc.t[0].AtLevel(level), sc.t[1].AtLevel(level)}
	for i := 0; i < level; i++ {
		r := ks.params.QBasis.Rings[i]
		sumDiff(r, e.C0.Limbs[i], o.C0.Limbs[i], diff[0].Limbs[i], ks.params.N()/c)
		sumDiff(r, e.C1.Limbs[i], o.C1.Limbs[i], diff[1].Limbs[i], ks.params.N()/c)
	}
	rp.addRotated(e, diff, uint64(c+1), gk, sc)
}

// sumDiff sets diff = E − X^sh·O and e = E + X^sh·O for one limb (E is e on
// entry), 0 < sh < N. The negacyclic shift splits O into two contiguous
// segments — X^sh·O is O[:N−sh] moved up by sh and −O[N−sh:] wrapped to the
// front — so each output is two vector Add/Sub calls, with no shifted copy
// of O.
func sumDiff(r *ring.Ring, e, o, diff ring.Poly, sh int) {
	top, low := o[len(o)-sh:], o[:len(o)-sh]
	r.Add(e[:sh], top, diff[:sh])
	r.Sub(e[sh:], low, diff[sh:])
	r.Sub(e[:sh], top, e[:sh])
	r.Add(e[sh:], low, e[sh:])
}

// addRotated adds the key-switched σ_g(src) to dst, both in coefficient form.
// src[0] must not share storage with dst.C0; src[1] may be dst.C1 (it is
// read before dst is written). σ_g permutes coefficients exactly: σ_g(src[1])
// feeds the gadget decomposition as it stands, both ModDowns emit
// coefficients and add them onto dst as they finish, and σ_g(src[0]) is never
// materialized — the last phase scatters src[0] into dst.C0 with
// ring.AutomorphismAdd. The steps on either side of the key switch are
// per-limb phases of the arena like the switch's own.
func (rp *Repacker) addRotated(dst *Ciphertext, src [2]rns.Poly, g uint64, gk *GadgetCiphertext, sc *Scratch) {
	ks := rp.ks
	level := dst.Level()
	j := &sc.job
	rot := sc.c[0].AtLevel(level) // σ_g(src[1])
	j.level, j.g = level, g
	j.src[0], j.dst[0] = src[1], rot
	ks.run(sc, level, (*KeySwitcher).automorphLimb)
	ks.switchPoly(rot, false, gk, dst.C0, dst.C1, accumulate, sc) // C0 += d0, C1 += d1
	j.src[0], j.dst[0] = src[0], dst.C0
	ks.run(sc, level, (*KeySwitcher).automorphAddLimb) // C0 += σ_g(src[0])
}

// automorphLimb and its accumulating form automorphAddLimb are the repack's
// per-limb steps around its key switch, one task per Q limb: dst = σ_g(src)
// and dst += σ_g(src), σ_g a signed permutation of the coefficients.
func (ks *KeySwitcher) automorphLimb(sc *Scratch, t int) {
	j := &sc.job
	s, i := sc.pairLimb(t)
	ks.params.QBasis.Rings[i].Automorphism(j.src[s].Limbs[i], j.g, j.dst[s].Limbs[i])
}

func (ks *KeySwitcher) automorphAddLimb(sc *Scratch, t int) {
	j := &sc.job
	s, i := sc.pairLimb(t)
	ks.params.QBasis.Rings[i].AutomorphismAdd(j.src[s].Limbs[i], j.g, j.dst[s].Limbs[i])
}
