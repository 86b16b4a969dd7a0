package rlwe

import (
	"fmt"
	"os"
	"testing"

	"heap/internal/obs"
	"heap/internal/ring"
	"heap/internal/rns"
)

// fusedRings are the rings the fused entry points are held to their unfused
// sequences on: the test ring, and one at the minimum fanned degree with the
// paper's gadget shape (7 Q limbs, 4 P limbs, dnum 2).
func fusedRings(t *testing.T) []*Parameters {
	return []*Parameters{
		testParams(t, 5),
		MustParameters(10, ring.GenerateNTTPrimes(40, 10, 7), ring.GenerateNTTPrimesUp(41, 10, 4), ring.DefaultSigma, 2),
	}
}

// eachKernelSetAndWidth runs f with the vector kernels on and off (the scalar
// loops are what HEAP_NOSIMD=1 selects) and on key switchers of width 1 and 2.
// Width 2 fans out on a ring under the minimum degree too: its fans flag is
// set directly, as TestWidthChangesNothingButTheClock does. The kernel set
// the process started with is restored afterwards.
func eachKernelSetAndWidth(t *testing.T, p *Parameters, f func(name string, ks *KeySwitcher)) {
	defer ring.SetSIMD(os.Getenv("HEAP_NOSIMD") == "")
	for _, simd := range []bool{true, false} {
		vector := ring.SetSIMD(simd)
		for _, workers := range []int{1, 2} {
			ks := NewKeySwitcher(p)
			ks.SetWorkers(workers)
			if workers > 1 {
				ks.fans = true
			}
			f(fmt.Sprintf("logN=%d vector=%v workers=%d", p.LogN, vector, workers), ks)
		}
	}
}

// refMulRelinRescale is the sequence MulRelinRescale fuses: the tensor, then
// Relinearize, whose ModDowns add onto its degree-0 and degree-1 parts, then
// DivRoundByLastModulus.
func refMulRelinRescale(ks *KeySwitcher, a, b *Ciphertext, rlk *GadgetCiphertext) *Ciphertext {
	bas := ks.params.QBasis.AtLevel(min(a.Level(), b.Level()))
	c0, c1, cross, d2 := bas.NewPoly(), bas.NewPoly(), bas.NewPoly(), bas.NewPoly()
	bas.MulCoeffs(a.C0, b.C0, c0)
	bas.MulCoeffs(a.C0, b.C1, c1)
	bas.MulCoeffs(a.C1, b.C0, cross)
	bas.Add(c1, cross, c1)
	bas.MulCoeffs(a.C1, b.C1, d2)
	ks.Relinearize(c0, c1, d2, rlk)
	return ks.DivRoundByLastModulus(&Ciphertext{C0: c0, C1: c1, IsNTT: true, Scale: a.Scale * b.Scale})
}

// TestMulRelinRescaleMatchesUnfused holds the rescale inside the ModDown to
// the sequence it replaces, word for word, at every level from 2 up: for
// distinct factors, for a square (a == b, one ciphertext), and for factors at
// two levels. It also holds the ledger: the same key switch counted, and the
// reference's transforms less the 2·level its rescale spent on its own — the
// fused form transforms no limb twice.
func TestMulRelinRescaleMatchesUnfused(t *testing.T) {
	for _, p := range fusedRings(t) {
		kg := NewKeyGenerator(p, 91)
		rlk := kg.GenRelinearizationKey(kg.GenSecretKey(SecretTernary))
		s := ring.NewSampler(92)
		eachKernelSetAndWidth(t, p, func(name string, ks *KeySwitcher) {
			for level := 2; level <= p.MaxLevel(); level++ {
				a, b := randCiphertext(p, s, level), randCiphertext(p, s, level)
				a.Scale, b.Scale = 3, 5
				for _, c := range []struct {
					what string
					x, y *Ciphertext
				}{{"a·b", a, b}, {"a·a", a, a}, {"a·(b one level up)", a, randCiphertext(p, s, min(level+1, p.MaxLevel()))}} {
					refMet, met := obs.NewMetrics(), obs.NewMetrics()
					ks.SetRecorder(refMet)
					want := refMulRelinRescale(ks, c.x, c.y, rlk)
					ks.SetRecorder(met)
					got := ks.MulRelinRescale(c.x, c.y, rlk)
					ks.SetRecorder(nil)
					bas := p.QBasis.AtLevel(level - 1)
					if got.Level() != level-1 || !got.IsNTT || got.Scale != c.x.Scale*c.y.Scale {
						t.Fatalf("%s level %d %s: level %d IsNTT %v scale %g", name, level, c.what, got.Level(), got.IsNTT, got.Scale)
					}
					if !bas.Equal(want.C0, got.C0) || !bas.Equal(want.C1, got.C1) {
						t.Fatalf("%s level %d %s: fused product differs from tensor → Relinearize → DivRoundByLastModulus", name, level, c.what)
					}
					if k := met.Counter(obs.CounterKeySwitch); k != 1 || refMet.Counter(obs.CounterKeySwitch) != 1 {
						t.Errorf("%s level %d %s: %d key switches counted, want 1", name, level, c.what, k)
					}
					if n, ref := met.Counter(obs.CounterNTT), refMet.Counter(obs.CounterNTT); n+uint64(2*level) != ref {
						t.Errorf("%s level %d %s: %d limb transforms, want the reference's %d less %d", name, level, c.what, n, ref, 2*level)
					}
				}
			}
		})
	}
}

// TestRotateMatchesPermuteThenSwitch holds the rotation, whose permutations
// ride in the key switch's first and last phases, to the sequence it
// replaces: permute both components, key-switch σ(C1), add the b side onto
// σ(C0). The hoisted rotation is held to the same split: its output on a
// ciphertext whose C0 is zero is the switch alone, which σ(C0) completes.
func TestRotateMatchesPermuteThenSwitch(t *testing.T) {
	for _, p := range fusedRings(t) {
		kg := NewKeyGenerator(p, 93)
		sk := kg.GenSecretKey(SecretTernary)
		g := p.QBasis.Rings[0].GaloisElementForRotation(3)
		gk := kg.GenGaloisKey(g, sk)
		s := ring.NewSampler(94)
		eachKernelSetAndWidth(t, p, func(name string, ks *KeySwitcher) {
			perm := ks.EnsurePerm(g)
			for _, level := range []int{1, 2, p.MaxLevel()} {
				bas := p.QBasis.AtLevel(level)
				ct := randCiphertext(p, s, level)
				rot := [2]rns.Poly{bas.NewPoly(), bas.NewPoly()}
				bas.AutomorphismNTT(ct.C0, perm, rot[0])
				bas.AutomorphismNTT(ct.C1, perm, rot[1])
				d0, d1 := bas.NewPoly(), bas.NewPoly()
				ks.SwitchPolyInto(rot[1], gk, d0, d1, ks.NewScratch())
				bas.Add(rot[0], d0, rot[0])

				got := ks.Automorphism(ct, g, gk)
				if !bas.Equal(rot[0], got.C0) || !bas.Equal(d1, got.C1) {
					t.Fatalf("%s level %d: rotation differs from permute-then-switch", name, level)
				}

				h := ks.Decompose(ct.C1)
				hoisted := ks.ApplyGaloisHoisted(ct, h, g, gk)
				alone := ks.ApplyGaloisHoisted(&Ciphertext{C0: bas.NewPoly(), C1: ct.C1}, h, g, gk)
				bas.AutomorphismNTT(ct.C0, perm, rot[0])
				bas.Add(rot[0], alone.C0, rot[0])
				if !bas.Equal(rot[0], hoisted.C0) || !bas.Equal(alone.C1, hoisted.C1) {
					t.Fatalf("%s level %d: hoisted rotation differs from σ(C0) plus its switch", name, level)
				}
			}
		})
	}
}
