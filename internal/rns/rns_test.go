package rns

import (
	"math/big"
	"testing"
	"testing/quick"

	"heap/internal/ring"
)

func testBasis(t *testing.T, logN, limbs int) *Basis {
	t.Helper()
	return NewBasis(logN, ring.GenerateNTTPrimes(40, logN, limbs))
}

func TestCRTRoundTrip(t *testing.T) {
	b := testBasis(t, 6, 4)
	s := ring.NewSampler(1)
	bigQ := b.Modulus()
	coeffs := make([]*big.Int, b.N)
	for i := range coeffs {
		c := new(big.Int).SetUint64(s.Uint64())
		c.Mul(c, new(big.Int).SetUint64(s.Uint64()))
		coeffs[i] = c.Mod(c, bigQ)
	}
	p := b.NewPoly()
	b.SetBigCoeffs(coeffs, p)
	got := b.CRTReconstruct(p)
	for i := range coeffs {
		if coeffs[i].Cmp(got[i]) != 0 {
			t.Fatalf("coeff %d: want %v got %v", i, coeffs[i], got[i])
		}
	}
}

func TestCRTCentered(t *testing.T) {
	b := testBasis(t, 4, 3)
	v := make([]int64, b.N)
	v[0], v[1], v[2] = -5, 7, -123456
	p := b.NewPoly()
	b.SetSigned(v, p)
	got := b.CRTReconstructCentered(p)
	for i := range v {
		if got[i].Int64() != v[i] {
			t.Fatalf("coeff %d: want %d got %v", i, v[i], got[i])
		}
	}
}

func TestAddSubNegMulLimbwise(t *testing.T) {
	b := testBasis(t, 5, 3)
	s := ring.NewSampler(2)
	a, c := b.NewPoly(), b.NewPoly()
	for i := range a.Limbs {
		s.UniformPoly(b.Rings[i], a.Limbs[i])
		s.UniformPoly(b.Rings[i], c.Limbs[i])
	}
	sum, diff := b.NewPoly(), b.NewPoly()
	b.Add(a, c, sum)
	b.Sub(sum, c, diff)
	if !b.Equal(diff, a) {
		t.Error("(a+c)-c != a")
	}
	neg, zero := b.NewPoly(), b.NewPoly()
	b.Neg(a, neg)
	b.Add(a, neg, zero)
	for i := range zero.Limbs {
		for j, v := range zero.Limbs[i] {
			if v != 0 {
				t.Fatalf("a+(-a) != 0 at limb %d coeff %d", i, j)
			}
		}
	}
}

func TestNTTRoundTripAllLimbs(t *testing.T) {
	b := testBasis(t, 7, 4)
	s := ring.NewSampler(3)
	p := b.NewPoly()
	for i := range p.Limbs {
		s.UniformPoly(b.Rings[i], p.Limbs[i])
	}
	orig := p.Copy()
	b.NTT(p)
	b.INTT(p)
	if !b.Equal(p, orig) {
		t.Error("RNS NTT round trip failed")
	}
}

// TestDivRoundByLastModulus checks the Rescale kernel against exact big-int
// division with rounding.
func TestDivRoundByLastModulus(t *testing.T) {
	for _, inNTT := range []bool{false, true} {
		b := testBasis(t, 4, 3)
		s := ring.NewSampler(4)
		bigQ := b.Modulus()
		qL := new(big.Int).SetUint64(b.Rings[2].Mod.Q)

		coeffs := make([]*big.Int, b.N)
		for i := range coeffs {
			c := new(big.Int).SetUint64(s.Uint64())
			c.Mul(c, new(big.Int).SetUint64(s.Uint64()))
			coeffs[i] = c.Mod(c, bigQ)
		}
		p := b.NewPoly()
		b.SetBigCoeffs(coeffs, p)
		if inNTT {
			b.NTT(p)
		}
		out := b.DivRoundByLastModulus(p, inNTT)
		if inNTT {
			b.INTT(out)
		}
		got := b.CRTReconstruct(out)
		qSub := b.AtLevel(2).Modulus()
		half := new(big.Int).Rsh(qL, 1)
		for i := range coeffs {
			want := new(big.Int).Add(coeffs[i], half)
			want.Div(want, qL)
			want.Mod(want, qSub)
			if want.Cmp(got[i]) != 0 {
				t.Fatalf("inNTT=%v coeff %d: want %v got %v", inNTT, i, want, got[i])
			}
		}
	}
}

// Extend is ExtendWith with freshly allocated scratch.
func (e *Extender) Extend(p Poly, out Poly) {
	e.ExtendWith(p, out, NewExtendScratch(p.Level(), e.src.N))
}

// Apply is ApplyWith with freshly allocated scratch.
func (md *ModDown) Apply(cQ, cP, out Poly) {
	md.ApplyWith(cQ, cP, out, md.NewScratch())
}

// TestExtenderSmallValues: for small values the fast basis conversion must
// yield x + u·Q with 0 ≤ u < level (the Halevi-Polyakov-Shoup slack).
func TestExtenderSmallValues(t *testing.T) {
	src := NewBasis(4, ring.GenerateNTTPrimes(40, 4, 3))
	dst := NewBasis(4, ring.GenerateNTTPrimesUp(40, 4, 2))
	e := NewExtender(src, dst)
	bigQ := src.Modulus()

	v := make([]int64, src.N)
	for i := range v {
		v[i] = int64(i * 31)
	}
	p := src.NewPoly()
	src.SetSigned(v, p)
	out := dst.NewPoly()
	e.Extend(p, out)
	for j := range out.Limbs {
		pj := new(big.Int).SetUint64(dst.Rings[j].Mod.Q)
		for i := range v {
			got := new(big.Int).SetUint64(out.Limbs[j][i])
			ok := false
			for u := int64(0); u < int64(src.Level()); u++ {
				want := new(big.Int).Mul(big.NewInt(u), bigQ)
				want.Add(want, big.NewInt(v[i]))
				want.Mod(want, pj)
				if want.Cmp(got) == 0 {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("dst limb %d coeff %d: got %d, not of the form x+u·Q", j, i, out.Limbs[j][i])
			}
		}
	}
}

// TestExtenderApproximation: for arbitrary values the conversion may be off
// by u·Q for u < level, never more.
func TestExtenderApproximation(t *testing.T) {
	src := NewBasis(3, ring.GenerateNTTPrimes(40, 3, 3))
	dst := NewBasis(3, ring.GenerateNTTPrimesUp(40, 3, 2))
	e := NewExtender(src, dst)
	s := ring.NewSampler(5)

	bigQ := src.Modulus()
	coeffs := make([]*big.Int, src.N)
	for i := range coeffs {
		c := new(big.Int).SetUint64(s.Uint64())
		c.Mul(c, new(big.Int).SetUint64(s.Uint64()))
		coeffs[i] = c.Mod(c, bigQ)
	}
	p := src.NewPoly()
	src.SetBigCoeffs(coeffs, p)
	out := dst.NewPoly()
	e.Extend(p, out)

	for j := range out.Limbs {
		pj := new(big.Int).SetUint64(dst.Rings[j].Mod.Q)
		for i := range coeffs {
			got := new(big.Int).SetUint64(out.Limbs[j][i])
			ok := false
			for u := int64(0); u < int64(src.Level()); u++ {
				want := new(big.Int).Add(coeffs[i], new(big.Int).Mul(big.NewInt(u), bigQ))
				want.Mod(want, pj)
				if want.Cmp(got) == 0 {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("limb %d coeff %d: conversion not within u·Q slack", j, i)
			}
		}
	}
}

// TestModDown verifies that extending by P then dividing by P returns the
// original value up to a small additive error.
func TestModDown(t *testing.T) {
	qb := NewBasis(4, ring.GenerateNTTPrimes(40, 4, 3))
	pb := NewBasis(4, ring.GenerateNTTPrimesUp(40, 4, 2))
	md := NewModDown(qb, pb)
	s := ring.NewSampler(6)

	// x uniform over Q; represent x·P over Q‖P: residues of x·P.
	bigP := pb.Modulus()
	bigQ := qb.Modulus()
	coeffs := make([]*big.Int, qb.N)
	xs := make([]*big.Int, qb.N)
	for i := range coeffs {
		x := new(big.Int).SetUint64(s.Uint64())
		x.Mul(x, new(big.Int).SetUint64(s.Uint64()))
		x.Mod(x, bigQ)
		xs[i] = x
		coeffs[i] = new(big.Int).Mul(x, bigP)
	}
	cQ := qb.NewPoly()
	qb.SetBigCoeffs(coeffs, cQ)
	cP := pb.NewPoly()
	pb.SetBigCoeffs(coeffs, cP) // x·P ≡ 0 mod P, but set actual residues
	qb.NTT(cQ)
	pb.NTT(cP)

	out := qb.NewPoly()
	md.Apply(cQ, cP, out)
	qb.INTT(out)
	got := qb.CRTReconstruct(out)
	for i := range xs {
		diff := new(big.Int).Sub(got[i], xs[i])
		diff.Mod(diff, bigQ)
		half := new(big.Int).Rsh(bigQ, 1)
		if diff.Cmp(half) > 0 {
			diff.Sub(diff, bigQ)
		}
		if diff.CmpAbs(big.NewInt(int64(pb.Level()+1))) > 0 {
			t.Fatalf("coeff %d: ModDown error %v exceeds bound", i, diff)
		}
	}
}

func TestAtLevelViews(t *testing.T) {
	b := testBasis(t, 4, 4)
	p := b.NewPoly()
	v := p.AtLevel(2)
	if v.Level() != 2 {
		t.Fatalf("AtLevel(2).Level() = %d", v.Level())
	}
	v.Limbs[0][0] = 7
	if p.Limbs[0][0] != 7 {
		t.Error("AtLevel should share storage")
	}
	sb := b.AtLevel(3)
	if sb.Level() != 3 || sb.Rings[2] != b.Rings[2] {
		t.Error("basis AtLevel mismatch")
	}
}

// TestCRTHomomorphismProperty: CRT reconstruction commutes with addition —
// a property-based check over random residue polynomials.
func TestCRTHomomorphismProperty(t *testing.T) {
	b := testBasis(t, 4, 3)
	bigQ := b.Modulus()
	f := func(seed uint64) bool {
		s := ring.NewSampler(seed%1024 + 7)
		x, y := b.NewPoly(), b.NewPoly()
		for i := range x.Limbs {
			s.UniformPoly(b.Rings[i], x.Limbs[i])
			s.UniformPoly(b.Rings[i], y.Limbs[i])
		}
		sum := b.NewPoly()
		b.Add(x, y, sum)
		xs, ys, ss := b.CRTReconstruct(x), b.CRTReconstruct(y), b.CRTReconstruct(sum)
		for i := range ss {
			want := new(big.Int).Add(xs[i], ys[i])
			want.Mod(want, bigQ)
			if want.Cmp(ss[i]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// divRoundByLastModulusRef is the rescale loop as it stood before the limb
// step was made branch-free and division-free: the reference DivRoundLimb
// must reproduce word for word.
func divRoundByLastModulusRef(b *Basis, p Poly, inNTT bool) Poly {
	last := p.Level() - 1
	rLast := b.Rings[last]
	qL := rLast.Mod.Q
	cL := p.Limbs[last].Copy()
	if inNTT {
		rLast.INTT(cL)
	}
	out := Poly{Limbs: make([]ring.Poly, last)}
	half := qL >> 1
	for i := 0; i < last; i++ {
		ri := b.Rings[i]
		qi := ri.Mod.Q
		qLInv := ri.Mod.InvMod(qL % qi)
		t := ri.NewPoly()
		for j, v := range cL {
			var r uint64
			if v > half {
				r = qi - (qL-v)%qi
				if r == qi {
					r = 0
				}
			} else {
				r = v % qi
			}
			t[j] = r
		}
		if inNTT {
			ri.NTT(t)
		}
		oi := ri.NewPoly()
		ri.Sub(p.Limbs[i], t, oi)
		ri.MulScalar(oi, qLInv, oi)
		out.Limbs[i] = oi
	}
	return out
}

// TestDivRoundLimbMatchesReference locks the rescale's limb step to the old
// loop on both sides of its prime-size test: a chain of one size (q_L < 2·q_i,
// the masked-subtraction path, with q_L above and below q_i), a 50-bit limb
// under 44-bit ones (q_L < q_i), and 30-bit limbs under a 36-bit last limb
// (q_L ≥ 2·q_i, the general remainder). The last limb is seeded with the
// values the centring turns on — 0, ⌊q_L/2⌋ and its neighbours, q_i and its
// neighbours, q_L − 1 — beside uniform ones, in both representations.
func TestDivRoundLimbMatchesReference(t *testing.T) {
	const logN = 6
	for _, c := range []struct {
		name   string
		primes []uint64
	}{
		{"one size", ring.GenerateNTTPrimes(36, logN, 4)},
		{"one size reversed", reversed(ring.GenerateNTTPrimes(36, logN, 4))},
		{"wide limb under narrow last", append(ring.GenerateNTTPrimes(50, logN, 1), ring.GenerateNTTPrimes(44, logN, 2)...)},
		{"narrow limbs under wide last", append(ring.GenerateNTTPrimes(30, logN, 2), ring.GenerateNTTPrimes(36, logN, 1)...)},
	} {
		b := NewBasis(logN, c.primes)
		last := b.Level() - 1
		qL := b.Rings[last].Mod.Q
		s := ring.NewSampler(17)
		for _, inNTT := range []bool{false, true} {
			p := b.NewPoly()
			for i, r := range b.Rings {
				s.UniformPoly(r, p.Limbs[i])
			}
			edges := []uint64{0, 1, qL / 2, qL/2 + 1, qL/2 - 1, qL - 1}
			for _, r := range b.Rings[:last] {
				for _, v := range []uint64{r.Mod.Q - 1, r.Mod.Q, r.Mod.Q + 1} {
					if v < qL {
						edges = append(edges, v)
					}
				}
			}
			copy(p.Limbs[last], edges)
			if inNTT {
				b.Rings[last].NTT(p.Limbs[last])
			}
			want := divRoundByLastModulusRef(b, p, inNTT)
			got := b.DivRoundByLastModulus(p, inNTT)
			if !b.AtLevel(last).Equal(want, got) {
				t.Errorf("%s inNTT=%v: DivRoundByLastModulus differs from the reference loop", c.name, inNTT)
			}
		}
	}
}

func reversed(v []uint64) []uint64 {
	out := make([]uint64, len(v))
	for i := range v {
		out[len(v)-1-i] = v[i]
	}
	return out
}
