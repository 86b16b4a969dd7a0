package rlwe

import (
	"math/big"
	"runtime"

	"heap/internal/ring"
	"heap/internal/rns"
)

// GadgetCiphertext is a hybrid-RNS gadget encryption ("RLWE'") of a message
// polynomial m: one RLWE row per gadget digit j, encrypting
// P·g_j·m where g_j = (Q/Q_j)·[(Q/Q_j)^{-1}]_{Q_j} is the RNS gadget factor
// over digit modulus Q_j and P is the special modulus. Rows live over the
// full Q‖P basis in NTT representation.
//
// A key-switching key, a blind-rotate key row, and an automorphism key are
// all GadgetCiphertexts — this is the shared structure behind the paper's
// observation that CKKS basis conversion and the TFHE ExternalProduct share
// one datapath (§IV-A, §IV-E).
type GadgetCiphertext struct {
	B []rns.Poly // b rows over QP, NTT
	A []rns.Poly // a rows over QP, NTT
}

// GadgetFactors returns the per-digit integers P·(Q/Q_j)·[(Q/Q_j)^{-1}]_{Q_j}.
func (p *Parameters) GadgetFactors() []*big.Int {
	alpha := p.Alpha()
	dnum := p.DigitsAtLevel(p.MaxLevel())
	bigQ := p.BigQ()
	bigP := p.BigP()
	out := make([]*big.Int, dnum)
	for j := 0; j < dnum; j++ {
		start, end := j*alpha, (j+1)*alpha
		if end > len(p.Q) {
			end = len(p.Q)
		}
		qj := big.NewInt(1)
		for i := start; i < end; i++ {
			qj.Mul(qj, new(big.Int).SetUint64(p.Q[i]))
		}
		qHat := new(big.Int).Div(bigQ, qj)
		inv := new(big.Int).ModInverse(new(big.Int).Mod(qHat, qj), qj)
		f := new(big.Int).Mul(qHat, inv)
		f.Mul(f, bigP)
		out[j] = f
	}
	return out
}

// GenGadgetCiphertext encrypts msg (NTT form over the full QP basis) under
// sk as a gadget ciphertext.
func (kg *KeyGenerator) GenGadgetCiphertext(msg rns.Poly, sk *SecretKey) *GadgetCiphertext {
	return kg.genGadgets(1, func(int) rns.Poly { return msg }, sk)[0]
}

// genGadgets encrypts n messages under sk as gadget ciphertexts, the k-th
// being msg(k): NTT form over QP, or a polynomial without limbs for zero. The
// keys are those of n GenGadgetCiphertext calls one after another, word for
// word, because every random word is still drawn on the calling goroutine in
// that order: row by row, a's limbs and then the error e. Only the arithmetic
// moves. Row j of a key is b = NTT(e) − a·s + P·g_j·m, limb by limb, and its
// limbs are independent, so they are dealt to a fan of kg.width() lanes
// (startFan) while the caller draws the next row, and joined before the row
// after is dealt: one row computes while the next is drawn. The caller draws
// into two reused buffers, alternating by row, and the lanes copy a out of
// them into the key, so the drawing goroutine — the one that cannot be
// split — neither allocates nor touches fresh memory. msg is called on the
// caller's goroutine and what it returns must stay unchanged until genGadgets
// returns. Each lane owns one N-word temporary for the call.
func (kg *KeyGenerator) genGadgets(n int, msg func(k int) rns.Poly, sk *SecretKey) []*GadgetCiphertext {
	p := kg.params
	qp := p.QPBasis
	dnum, limbs, deg := len(kg.factors), qp.Level(), p.N()
	width := kg.width()
	tmp := make([]ring.Poly, width)
	for w := range tmp {
		tmp[w] = make(ring.Poly, deg)
	}
	// Row r is drawn into draws[r%2] while row r−1 computes from the other;
	// row r−2 was joined before row r−1 was dealt.
	type draw struct {
		a rns.Poly
		e []int64
	}
	draws := [2]draw{{qp.NewPoly(), make([]int64, deg)}, {qp.NewPoly(), make([]int64, deg)}}
	out := make([]*GadgetCiphertext, n)
	var inFlight *fanout
	for k := range out {
		m := msg(k)
		g := &GadgetCiphertext{B: make([]rns.Poly, dnum), A: make([]rns.Poly, dnum)}
		for j := 0; j < dnum; j++ {
			d := draws[(k*dnum+j)%2]
			for i, r := range qp.Rings {
				kg.sampler.UniformPoly(r, d.a.Limbs[i])
			}
			kg.sampler.GaussianInto(d.e, p.Sigma)
			inFlight.wait()
			a := rns.Poly{Limbs: make([]ring.Poly, limbs)}
			b := rns.Poly{Limbs: make([]ring.Poly, limbs)}
			factors := kg.factors[j]
			inFlight = startFan(width, limbs, func(w, i int) {
				r, t := qp.Rings[i], tmp[w]
				ai, bi := make(ring.Poly, deg), make(ring.Poly, deg)
				a.Limbs[i], b.Limbs[i] = ai, bi
				copy(ai, d.a.Limbs[i])
				ring.SignedToPoly(r, d.e, bi)
				r.NTT(bi)
				r.MulCoeffs(ai, sk.NTTQP.Limbs[i], t)
				r.Sub(bi, t, bi)
				if m.Limbs != nil {
					r.MulScalar(m.Limbs[i], factors[i], t)
					r.Add(bi, t, bi)
				}
			})
			g.B[j], g.A[j] = b, a
		}
		out[k] = g
	}
	inFlight.wait()
	return out
}

// width is the number of goroutines a gadget row's limb arithmetic spreads
// over: one per processor, at most one per limb, and 1 — every row computed
// inline — on a ring under minFanDegree, where a hand-off costs what it saves.
func (kg *KeyGenerator) width() int {
	if kg.params.N() < minFanDegree {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), kg.params.QPBasis.Level())
}

// GenKeySwitchKey returns a key-switching key from skFrom to skTo: a gadget
// encryption of skFrom under skTo.
func (kg *KeyGenerator) GenKeySwitchKey(skFrom, skTo *SecretKey) *GadgetCiphertext {
	return kg.GenGadgetCiphertext(skFrom.NTTQP, skTo)
}

// GenRelinearizationKey encrypts s² under s, enabling CKKS Mult.
func (kg *KeyGenerator) GenRelinearizationKey(sk *SecretKey) *GadgetCiphertext {
	qp := kg.params.QPBasis
	s2 := qp.NewPoly()
	qp.MulCoeffs(sk.NTTQP, sk.NTTQP, s2)
	return kg.GenGadgetCiphertext(s2, sk)
}

// GenGaloisKey encrypts σ_g(s) under s, enabling the automorphism X→X^g
// (CKKS Rotate/Conjugate and the repacking automorphisms).
func (kg *KeyGenerator) GenGaloisKey(g uint64, sk *SecretKey) *GadgetCiphertext {
	return kg.GenGaloisKeys([]uint64{g}, sk)[0]
}

// GenGaloisKeys returns GenGaloisKey(gs[k], sk) for every k, in order and
// drawing what those calls would, as one pipeline of rows (genGadgets).
func (kg *KeyGenerator) GenGaloisKeys(gs []uint64, sk *SecretKey) []*GadgetCiphertext {
	qp := kg.params.QPBasis
	return kg.genGadgets(len(gs), func(k int) rns.Poly {
		sg := qp.NewPoly()
		qp.AutomorphismNTT(sk.NTTQP, qp.Rings[0].AutomorphismNTTIndex(gs[k]), sg)
		return sg
	}, sk)
}

// RGSWCiphertext encrypts a message for use as the right operand of an
// external product: C0 rows target the c0 component of the left operand and
// C1 rows the c1 component (encrypting m and m·s respectively).
type RGSWCiphertext struct {
	C0 *GadgetCiphertext // gadget encryption of m
	C1 *GadgetCiphertext // gadget encryption of m·s
}

// GenRGSWConstant encrypts the constant m ∈ {-1, 0, 1} (or any small signed
// constant) as an RGSW ciphertext — the form blind-rotate keys take.
func (kg *KeyGenerator) GenRGSWConstant(m int64, sk *SecretKey) *RGSWCiphertext {
	return kg.GenRGSWConstants([]int64{m}, sk)[0]
}

// GenRGSWConstants returns GenRGSWConstant(ms[i], sk) for every i, in order
// and drawing what those calls would, as one pipeline of rows (genGadgets):
// the rows of a whole blind-rotate key. An RGSW ciphertext of m is the gadget
// encryptions of m and m·s; each distinct constant's pair of messages is
// built once, and a zero constant's rows add no message at all.
func (kg *KeyGenerator) GenRGSWConstants(ms []int64, sk *SecretKey) []*RGSWCiphertext {
	qp := kg.params.QPBasis
	msgs := map[int64][2]rns.Poly{0: {}}
	message := func(k int) rns.Poly {
		c := ms[k/2]
		pair, ok := msgs[c]
		if !ok {
			v := make([]int64, kg.params.N())
			v[0] = c
			m, mS := qp.NewPoly(), qp.NewPoly()
			qp.SetSigned(v, m)
			qp.NTT(m)
			qp.MulCoeffs(m, sk.NTTQP, mS)
			pair = [2]rns.Poly{m, mS}
			msgs[c] = pair
		}
		return pair[k%2]
	}
	gs := kg.genGadgets(2*len(ms), message, sk)
	out := make([]*RGSWCiphertext, len(ms))
	for i := range out {
		out[i] = &RGSWCiphertext{C0: gs[2*i], C1: gs[2*i+1]}
	}
	return out
}

// Rows returns the number of gadget digits of the ciphertext.
func (g *GadgetCiphertext) Rows() int { return len(g.B) }

// SizeBytes returns the in-memory size of the gadget ciphertext's
// coefficient data, used by the key-traffic accounting of §III-C.
func (g *GadgetCiphertext) SizeBytes() int {
	total := 0
	for j := range g.B {
		for _, l := range g.B[j].Limbs {
			total += 8 * len(l)
		}
		for _, l := range g.A[j].Limbs {
			total += 8 * len(l)
		}
	}
	return total
}
