package rlwe

import (
	"fmt"
	"testing"

	"heap/internal/obs"
	"heap/internal/ring"
)

// Merge runs the merge tree over cts, one node after another: payloads land
// at stride N/count scaled by count, but garbage at non-stride positions
// survives (Trace annihilates it afterwards). Inputs must be
// coefficient-form ciphertexts at one common level; they are consumed as
// scratch, and the result aliases cts[0]'s storage. It is the serial
// reference of the tree the tests hold the node step to; bootstraps merge
// through core.MergeCollector.
func (rp *Repacker) Merge(cts []*Ciphertext) (*Ciphertext, error) {
	if err := rp.validate(cts); err != nil {
		return nil, err
	}
	sc := rp.scratch.Get().(*Scratch)
	defer rp.scratch.Put(sc)
	for c := 2; c <= len(cts); c <<= 1 {
		half, gk := len(cts)/c, rp.pk.Keys[uint64(c+1)]
		for i := 0; i < half; i++ {
			rp.mergePair(cts[i], cts[i+half], c, gk, sc)
		}
	}
	return cts[0], nil
}

// validate checks the merge-tree preconditions.
func (rp *Repacker) validate(cts []*Ciphertext) error {
	count := len(cts)
	if count == 0 || count&(count-1) != 0 {
		return fmt.Errorf("rlwe: repack needs a power-of-two ciphertext count, got %d", count)
	}
	if count > rp.ks.params.N() {
		return fmt.Errorf("rlwe: cannot pack %d ciphertexts into %d coefficients", count, rp.ks.params.N())
	}
	for i, ct := range cts {
		if ct == nil {
			return fmt.Errorf("rlwe: repack input %d is nil", i)
		}
		if ct.IsNTT {
			return fmt.Errorf("rlwe: repack input %d is in NTT representation", i)
		}
		if ct.Level() != cts[0].Level() {
			return fmt.Errorf("rlwe: repack inputs at mixed levels (%d vs %d)", cts[0].Level(), ct.Level())
		}
	}
	if cts[0].Level() < 1 {
		return fmt.Errorf("rlwe: repack inputs have no limbs")
	}
	for c := 2; c <= count; c <<= 1 {
		if _, ok := rp.pk.Keys[uint64(c+1)]; !ok {
			return fmt.Errorf("rlwe: missing packing key for galois element %d", c+1)
		}
	}
	return nil
}

// packFixture builds the key material for repacking tests.
func packFixture(t *testing.T, logN int) (*Parameters, *KeySwitcher, *PackingKeys, *KeyGenerator, *SecretKey) {
	t.Helper()
	p := testParams(t, logN)
	kg := NewKeyGenerator(p, 31)
	sk := kg.GenSecretKey(SecretTernary)
	ks := NewKeySwitcher(p)
	pk := kg.GenPackingKeys(sk)
	return p, ks, pk, kg, sk
}

// randCiphertext fills a ciphertext with uniform limbs — the repack
// algebra is data-independent, so random operands exercise it fully.
// pack is Merge followed by Trace: it combines 2^ℓ RLWE ciphertexts — each
// carrying its payload in the constant coefficient, with arbitrary garbage
// in all other coefficients — into a single RLWE ciphertext encrypting
//
//	Σ_i N · m_i · X^{i · N/2^ℓ}
//
// (every payload is scaled by N regardless of count: 2^ℓ merge doublings
// followed by N/2^ℓ trace doublings that annihilate the remaining garbage).
// Inputs are consumed as scratch; the result aliases cts[0]'s storage.
func pack(rp *Repacker, cts []*Ciphertext) (*Ciphertext, error) {
	out, err := rp.Merge(cts)
	if err != nil {
		return nil, err
	}
	return rp.Trace(out, len(cts))
}

func randCiphertext(p *Parameters, s *ring.Sampler, level int) *Ciphertext {
	ct := NewCiphertext(p, level)
	for i := 0; i < level; i++ {
		s.UniformPoly(p.QBasis.Rings[i], ct.C0.Limbs[i])
		s.UniformPoly(p.QBasis.Rings[i], ct.C1.Limbs[i])
	}
	ct.IsNTT = true
	return ct
}

func copyCts(cts []*Ciphertext) []*Ciphertext {
	out := make([]*Ciphertext, len(cts))
	for i, ct := range cts {
		out[i] = ct.CopyNew()
	}
	return out
}

// coeffCopy returns the coefficient-form copy of an NTT-form ciphertext: what
// the repacker takes where the NTT-domain references take ct itself.
func coeffCopy(p *Parameters, ct *Ciphertext) *Ciphertext {
	out := ct.CopyNew()
	p.QBasis.INTT(out.C0)
	p.QBasis.INTT(out.C1)
	out.IsNTT = false
	return out
}

func coeffCopies(p *Parameters, cts []*Ciphertext) []*Ciphertext {
	out := make([]*Ciphertext, len(cts))
	for i, ct := range cts {
		out[i] = coeffCopy(p, ct)
	}
	return out
}

// toNTT transforms a repacker output in place — the one NTT after which it
// must equal the NTT-domain reference word for word.
func toNTT(p *Parameters, ct *Ciphertext) *Ciphertext {
	p.QBasis.NTT(ct.C0)
	p.QBasis.NTT(ct.C1)
	ct.IsNTT = true
	return ct
}

// refMerge is the retired recursive implementation, kept verbatim as the
// serial reference: evens/odds split, coefficient-domain monomial rotation
// (INTT→MulByMonomialInto→NTT), allocating Automorphism.
func refMerge(ks *KeySwitcher, cts []*Ciphertext, pk *PackingKeys) *Ciphertext {
	count := len(cts)
	if count == 1 {
		return cts[0]
	}
	half := count / 2
	evens := make([]*Ciphertext, half)
	odds := make([]*Ciphertext, half)
	for i := 0; i < half; i++ {
		evens[i] = cts[2*i]
		odds[i] = cts[2*i+1]
	}
	e := refMerge(ks, evens, pk)
	o := refMerge(ks, odds, pk)

	level := e.Level()
	b := ks.params.QBasis.AtLevel(level)
	rot := ks.params.N() / count
	for i := 0; i < level; i++ {
		r := b.Rings[i]
		for _, limb := range []ring.Poly{o.C0.Limbs[i], o.C1.Limbs[i]} {
			r.INTT(limb)
			r.MulByMonomialInto(limb.Copy(), rot, limb)
			r.NTT(limb)
		}
	}
	sum := e.CopyNew()
	b.Add(sum.C0, o.C0, sum.C0)
	b.Add(sum.C1, o.C1, sum.C1)
	diff := e
	b.Sub(diff.C0, o.C0, diff.C0)
	b.Sub(diff.C1, o.C1, diff.C1)
	rotated := ks.Automorphism(diff, uint64(count+1), pk.Keys[uint64(count+1)])
	b.Add(sum.C0, rotated.C0, sum.C0)
	b.Add(sum.C1, rotated.C1, sum.C1)
	return sum
}

func refTrace(ks *KeySwitcher, out *Ciphertext, count int, pk *PackingKeys) *Ciphertext {
	b := ks.params.QBasis.AtLevel(out.Level())
	for step := 2 * count; step <= ks.params.N(); step <<= 1 {
		g := uint64(step + 1)
		rot := ks.Automorphism(out, g, pk.Keys[g])
		b.Add(out.C0, rot.C0, out.C0)
		b.Add(out.C1, rot.C1, out.C1)
	}
	return out
}

func ctsEqual(p *Parameters, a, b *Ciphertext) bool {
	return p.QBasis.Equal(a.C0, b.C0) && p.QBasis.Equal(a.C1, b.C1)
}

// TestRepackMatchesSerialReference is the bit-exactness property test of the
// coefficient-domain repack: over random counts and levels, Pack on the
// coefficient form of the inputs, NTT'd once, must reproduce the retired
// recursive NTT-domain implementation exactly (the cluster chaos tests rely
// on repacking being deterministic). The references above are unchanged, so
// this is the proof that the domain change moved no bit.
func TestRepackMatchesSerialReference(t *testing.T) {
	p, ks, pk, _, _ := packFixture(t, 5)
	s := ring.NewSampler(0xfeed)
	for _, count := range []int{1, 2, 4, 8, p.N()} {
		for level := 1; level <= p.MaxLevel(); level++ {
			cts := make([]*Ciphertext, count)
			for i := range cts {
				cts[i] = randCiphertext(p, s, level)
			}
			want := refTrace(ks, refMerge(ks, copyCts(cts), pk), count, pk)

			got, err := pack(NewRepacker(ks, pk), coeffCopies(p, cts))
			if err != nil {
				t.Fatalf("count=%d level=%d: %v", count, level, err)
			}
			if got.IsNTT {
				t.Fatalf("count=%d level=%d: packed result claims NTT form", count, level)
			}
			if !ctsEqual(p, want, toNTT(p, got)) {
				t.Errorf("count=%d level=%d: Pack differs from reference", count, level)
			}
		}
	}
}

// TestMergeConsumesInputs locks the documented contract the cluster layer
// relies on: Merge/Pack use their inputs as scratch and the result aliases
// cts[0]'s storage.
func TestMergeConsumesInputs(t *testing.T) {
	p, ks, pk, _, _ := packFixture(t, 4)
	s := ring.NewSampler(7)
	cts := make([]*Ciphertext, 4)
	for i := range cts {
		cts[i] = coeffCopy(p, randCiphertext(p, s, p.MaxLevel()))
	}
	originals := copyCts(cts)

	out, err := NewRepacker(ks, pk).Merge(cts)
	if err != nil {
		t.Fatal(err)
	}
	if out != cts[0] {
		t.Error("Merge result must alias cts[0]'s storage")
	}
	consumed := 0
	for i := range cts {
		if !ctsEqual(p, cts[i], originals[i]) {
			consumed++
		}
	}
	if consumed == 0 {
		t.Error("Merge left every input untouched; the consume-as-scratch contract changed")
	}
}

// TestRepackErrors: the exported entry points must return errors — not
// panic mid-bootstrap — on malformed requests.
func TestRepackErrors(t *testing.T) {
	p, ks, pk, _, _ := packFixture(t, 4)
	s := ring.NewSampler(8)
	mk := func(n, level int) []*Ciphertext {
		cts := make([]*Ciphertext, n)
		for i := range cts {
			cts[i] = coeffCopy(p, randCiphertext(p, s, level))
		}
		return cts
	}
	one := func(level int) *Ciphertext { return mk(1, level)[0] }
	L := p.MaxLevel()

	if _, err := pack(NewRepacker(ks, pk), mk(3, L)); err == nil {
		t.Error("expected error for non-power-of-two count")
	}
	if _, err := NewRepacker(ks, pk).Merge(nil); err == nil {
		t.Error("expected error for empty input")
	}
	mixed := mk(2, L)
	mixed[1] = one(L - 1)
	if _, err := NewRepacker(ks, pk).Merge(mixed); err == nil {
		t.Error("expected error for mixed levels")
	}
	withNil := mk(2, L)
	withNil[1] = nil
	if _, err := NewRepacker(ks, pk).Merge(withNil); err == nil {
		t.Error("expected error for nil input")
	}
	if _, err := NewRepacker(ks, pk).Trace(one(L), 3); err == nil {
		t.Error("expected error for non-power-of-two trace count")
	}
	// The repack lives in the coefficient domain: an NTT-form operand is a
	// caller bug that would otherwise pack garbage silently.
	withNTT := mk(2, L)
	withNTT[1] = randCiphertext(p, s, L)
	if _, err := NewRepacker(ks, pk).Merge(withNTT); err == nil {
		t.Error("expected error for an NTT-form merge input")
	}
	if _, err := NewRepacker(ks, pk).Trace(randCiphertext(p, s, L), 2); err == nil {
		t.Error("expected error for an NTT-form trace input")
	}

	// Missing key: strip the g=5 key needed by any count ≥ 4 merge.
	gutted := &PackingKeys{Keys: map[uint64]*GadgetCiphertext{}}
	for g, k := range pk.Keys {
		if g != 5 {
			gutted.Keys[g] = k
		}
	}
	if _, err := pack(NewRepacker(ks, gutted), mk(4, L)); err == nil {
		t.Error("expected error for missing packing key")
	}
	if _, err := NewRepacker(ks, gutted).Trace(one(L), 2); err == nil {
		t.Error("expected error for missing trace key")
	}

	rp := NewRepacker(ks, pk)
	e, o := one(L), one(L-1)
	if _, err := rp.MergePair(e, o, 2); err == nil {
		t.Error("expected error for mixed-level merge pair")
	}
	if _, err := rp.MergePair(e, one(L), 3); err == nil {
		t.Error("expected error for non-power-of-two merge span")
	}
	if _, err := rp.MergePair(e, randCiphertext(p, s, L), 2); err == nil {
		t.Error("expected error for an NTT-form merge sibling")
	}
	if _, err := NewRepacker(ks, gutted).MergePair(one(L), one(L), 4); err == nil {
		t.Error("expected error for a merge pair with no packing key")
	}
}

// TestMonomialNTTMatchesCoefficientDomain proves the two routes to a
// blind-rotation factor equal: for every class of rotation amount, the
// coefficient-domain rotate-and-difference (X^{±k} − 1)·a the binary CMux step
// runs is bit-identical to the pointwise multiplication by the evaluation-form
// vectors ring.MonomialsMinusOneNTT(k) the two-key product applies to its
// accumulators.
func TestMonomialNTTMatchesCoefficientDomain(t *testing.T) {
	p, _, _, _, _ := packFixture(t, 4)
	r := p.QBasis.Rings[0]
	n := r.N
	s := ring.NewSampler(9)
	plus, minus := r.NewPoly(), r.NewPoly()
	for _, k := range []int{0, 1, 5, n / 2, n - 1, n, n + 3, 2*n - 1} {
		a := r.NewPoly()
		s.UniformPoly(r, a) // NTT-form operand
		coeff := a.Copy()
		r.INTT(coeff)
		r.MonomialsMinusOneNTT(k, plus, minus)
		for _, c := range []struct {
			k    int
			mono ring.Poly
		}{{k, plus}, {-k, minus}} {
			want := r.NewPoly()
			r.MulByMonomialInto(coeff, c.k, want)
			r.Sub(want, coeff, want)
			r.NTT(want)
			got := r.NewPoly()
			r.MulCoeffs(a, c.mono, got)
			if !r.Equal(want, got) {
				t.Errorf("k=%d: NTT-domain (X^k − 1) multiply differs from coefficient-domain rotate-and-difference", c.k)
			}
		}
	}
}

// TestHoistedRotationMatchesAutomorphism checks the decompose-once/apply-many
// path: the hoisted rotation must decrypt to the same permuted message as the
// plain Automorphism (the two are not bit-identical — the fast basis
// extension sees permuted digits — but the difference stays inside key-switch
// noise), and the Into form must match the allocating form exactly.
func TestHoistedRotationMatchesAutomorphism(t *testing.T) {
	p, ks, _, kg, sk := packFixture(t, 5)
	enc := NewEncryptor(p, sk, 32)
	dec := NewDecryptor(p, sk)
	n := p.N()
	msg := make([]int64, n)
	for i := range msg {
		msg[i] = int64(i%17) - 8
	}
	level := p.MaxLevel()
	ct := enc.EncryptPolyAtLevel(encodeSigned(p, msg, level), level, 1)

	h := ks.Decompose(ct.C1)
	if h.Level() != level {
		t.Fatalf("decomposition at level %d, want %d", h.Level(), level)
	}
	for _, g := range []uint64{3, 5, 9} {
		gk := kg.GenGaloisKey(g, sk)
		plain := ks.Automorphism(ct, g, gk)
		hoisted := ks.ApplyGaloisHoisted(ct, h, g, gk)

		into := NewCiphertext(p, level)
		sc := ks.NewScratch()
		ks.ApplyGaloisHoistedInto(into, ct, h, g, gk, sc)
		if !ctsEqual(p, hoisted, into) {
			t.Fatalf("g=%d: ApplyGaloisHoistedInto differs from ApplyGaloisHoisted", g)
		}

		// Both must decrypt to σ_g(msg).
		expected := make([]int64, n)
		for i := 0; i < n; i++ {
			k := (uint64(i) * g) % uint64(2*n)
			if k < uint64(n) {
				expected[k] = msg[i]
			} else {
				expected[k-uint64(n)] = -msg[i]
			}
		}
		if d := maxAbsDiff(dec.PhaseCentered(plain), expected); d > 1<<16 {
			t.Errorf("g=%d: plain automorphism phase error %d", g, d)
		}
		if d := maxAbsDiff(dec.PhaseCentered(hoisted), expected); d > 1<<16 {
			t.Errorf("g=%d: hoisted automorphism phase error %d", g, d)
		}
	}
}

// TestAutomorphismIntoZeroAllocs locks the allocation-free contract of the
// merge tree's inner kernel.
func TestAutomorphismIntoZeroAllocs(t *testing.T) {
	p, ks, pk, _, sk := packFixture(t, 5)
	enc := NewEncryptor(p, sk, 33)
	msg := make([]int64, p.N())
	for i := range msg {
		msg[i] = int64(i % 5)
	}
	level := p.MaxLevel()
	ct := enc.EncryptPolyAtLevel(encodeSigned(p, msg, level), level, 1)
	gk := pk.Keys[3]
	out := NewCiphertext(p, level)
	sc := ks.NewScratch()
	ks.AutomorphismInto(out, ct, 3, gk, sc) // warm the arena + perm cache

	if avg := testing.AllocsPerRun(10, func() {
		ks.AutomorphismInto(out, ct, 3, gk, sc)
	}); avg != 0 {
		t.Fatalf("AutomorphismInto allocates %.1f objects/op, want 0", avg)
	}
}

// TestMergeLevelZeroAllocs locks one full merge-tree level (the unit the
// per-worker arenas are sized for): with a warm Repacker, merging a sibling
// pair must not touch the heap.
func TestMergeLevelZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; the allocation lock only holds in regular builds")
	}
	p, ks, pk, _, _ := packFixture(t, 5)
	s := ring.NewSampler(10)
	rp := NewRepacker(ks, pk)
	level := p.MaxLevel()
	pair := []*Ciphertext{coeffCopy(p, randCiphertext(p, s, level)), coeffCopy(p, randCiphertext(p, s, level))}
	if _, err := rp.Merge(pair); err != nil { // warm the arena
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if _, err := rp.Merge(pair); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("one merge-tree level allocates %.1f objects/op, want 0", avg)
	}
}

// TestHoistedTraceMatchesPreHoistingReference pins the coefficient-domain
// trace — both components stay in coefficient form across all steps, no key
// switch INTTs its input and nothing is NTT'd until the caller does it once —
// bit-exactly to the pre-hoisting NTT-domain automorphism-and-add loop kept
// above as refTrace. The domain change alters the evaluation order, so
// identity (not closeness) is the contract: every map in the chain is exact
// on canonical residues. Run under -race this also exercises the pooled
// arenas.
func TestHoistedTraceMatchesPreHoistingReference(t *testing.T) {
	p, ks, pk, _, _ := packFixture(t, 5)
	s := ring.NewSampler(0xbeef)
	rp := NewRepacker(ks, pk)
	for _, count := range []int{1, 2, 8, p.N() / 2, p.N()} {
		for level := 1; level <= p.MaxLevel(); level++ {
			ct := randCiphertext(p, s, level)
			want := refTrace(ks, ct.CopyNew(), count, pk)
			got, err := rp.Trace(coeffCopy(p, ct), count)
			if err != nil {
				t.Fatalf("count=%d level=%d: %v", count, level, err)
			}
			if !ctsEqual(p, want, toNTT(p, got)) {
				t.Errorf("count=%d level=%d: coefficient-domain Trace differs from pre-hoisting reference", count, level)
			}
		}
	}
}

// TestTraceZeroAllocs locks the trace to the heap-free contract the merge
// tree holds: with a warm arena, tracing a ciphertext down to the subring
// must not allocate.
func TestTraceZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; the allocation lock only holds in regular builds")
	}
	p, ks, pk, _, _ := packFixture(t, 5)
	s := ring.NewSampler(11)
	rp := NewRepacker(ks, pk)
	ct := coeffCopy(p, randCiphertext(p, s, p.MaxLevel()))
	if _, err := rp.Trace(ct, 1); err != nil { // warm the arena
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if _, err := rp.Trace(ct, 1); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("trace allocates %.1f objects/op, want 0", avg)
	}
}

// TestMergeTransformBudget pins the limb-transform ledger of the repack the
// way TestExternalProductTransformBudget pins the external product's: one
// merge — and one trace step, the same kernel — is D digit raises of
// level+|P| transforms plus two ModDowns of |P| inverse P-part transforms and
// level Q-limb transforms each, with nothing spent moving operands between
// domains (the NTT-domain kernel paid `level` more to INTT its key-switch
// input). 36 at primary_tail's shape (Q6+P3), 44 at the paper's (Q7+P4).
func TestMergeTransformBudget(t *testing.T) {
	const logN = 5
	for _, shape := range []struct{ q, p, dnum, want int }{{6, 3, 2, 36}, {7, 4, 2, 44}} {
		p := MustParameters(logN, ring.GenerateNTTPrimes(40, logN, shape.q), ring.GenerateNTTPrimesUp(40, logN, shape.p), ring.DefaultSigma, shape.dnum)
		kg := NewKeyGenerator(p, 51)
		sk := kg.GenSecretKey(SecretTernary)
		ks := NewKeySwitcher(p)
		rp := NewRepacker(ks, kg.GenPackingKeys(sk))
		s := ring.NewSampler(52)
		level := p.MaxLevel()
		if d := p.DigitsAtLevel(level); d*(level+shape.p)+2*(shape.p+level) != shape.want {
			t.Fatalf("shape %+v: the budget formula gives %d", shape, d*(level+shape.p)+2*(shape.p+level))
		}
		met := obs.NewMetrics()
		ks.SetRecorder(met)
		step := func(name string, wantTransforms, wantSwitches uint64, f func() error) {
			t.Helper()
			ntt, sw := met.Counter(obs.CounterNTT), met.Counter(obs.CounterKeySwitch)
			if err := f(); err != nil {
				t.Fatal(err)
			}
			if got := met.Counter(obs.CounterNTT) - ntt; got != wantTransforms {
				t.Errorf("shape %+v: %s recorded %d limb transforms, want %d", shape, name, got, wantTransforms)
			}
			if got := met.Counter(obs.CounterKeySwitch) - sw; got != wantSwitches {
				t.Errorf("shape %+v: %s recorded %d key switches, want %d", shape, name, got, wantSwitches)
			}
		}
		mk := func() *Ciphertext { return coeffCopy(p, randCiphertext(p, s, level)) }
		want := uint64(shape.want)
		step("one merge", want, 1, func() error { _, err := rp.MergePair(mk(), mk(), 2); return err })
		step("one trace step", want, 1, func() error { _, err := rp.Trace(mk(), p.N()/2); return err })
		// A whole pack of 8 into N = 32: 7 merges and log2(32/8) = 2 trace
		// steps, and no per-input term.
		step("pack of 8", 9*want, 9, func() error {
			cts := make([]*Ciphertext, 8)
			for i := range cts {
				cts[i] = mk()
			}
			_, err := pack(rp, cts)
			return err
		})
		if got := met.Counter(obs.CounterMerge); got != 8 {
			t.Errorf("shape %+v: merges = %d, want 8", shape, got)
		}
	}
}

// TestMergeNodeStepsMatchMonomialReference pins the merge node's element-wise
// steps to the forms they replaced, word for word, for every packing element
// g = c+1 (c = 2 … N) on every limb: the segment sum and difference
// (sumDiff) to MulByMonomialInto(O, N/c) followed by Add and Sub, and the
// scatter of the difference into the sum (AutomorphismAdd) to Automorphism
// followed by Add — on operands planted with 0 and q−1 at both ends of each
// segment, where a sign flip or a missed wrap would show.
func TestMergeNodeStepsMatchMonomialReference(t *testing.T) {
	p, _, _, _, _ := packFixture(t, 5)
	s := ring.NewSampler(12)
	n := p.N()
	for i, r := range p.QBasis.Rings {
		q := r.Mod.Q
		for c := 2; c <= n; c <<= 1 {
			sh, g := n/c, uint64(c+1)
			e, o := r.NewPoly(), r.NewPoly()
			s.UniformPoly(r, e)
			s.UniformPoly(r, o)
			for _, j := range []int{0, sh - 1, sh, n - sh - 1, n - sh, n - 1} {
				e[j], o[j] = q-1, 0
				e[(j+1)%n], o[(j+2)%n] = 0, q-1
			}

			rot, wantSum, wantDiff := r.NewPoly(), r.NewPoly(), r.NewPoly()
			r.MulByMonomialInto(o, sh, rot)
			r.Add(e, rot, wantSum)
			r.Sub(e, rot, wantDiff)
			sum, diff := e.Copy(), r.NewPoly()
			sumDiff(r, sum, o, diff, sh)
			if !r.Equal(sum, wantSum) || !r.Equal(diff, wantDiff) {
				t.Fatalf("limb %d c=%d: segment sum/difference differs from MulByMonomialInto + Add/Sub", i, c)
			}

			for _, j := range []int{0, 1, sh, n / 2, n - 1} {
				diff[j], diff[(j+3)%n] = 0, q-1
			}
			want := r.NewPoly()
			r.Automorphism(diff, g, want)
			r.Add(sum, want, want)
			r.AutomorphismAdd(diff, g, sum)
			if !r.Equal(sum, want) {
				t.Fatalf("limb %d g=%d: AutomorphismAdd differs from Automorphism + Add", i, g)
			}
		}
	}
}

// Level reports the level the decomposition was taken at.
func (h *Hoisted) Level() int { return h.level }
