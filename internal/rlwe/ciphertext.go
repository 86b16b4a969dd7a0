package rlwe

import (
	"math"
	"math/big"

	"heap/internal/ring"
	"heap/internal/rns"
)

// Ciphertext is a degree-1 RLWE ciphertext (c0, c1) over the Q basis at some
// level, decrypting to phase = c0 + c1·s. Scale carries the CKKS plaintext
// scale Δ and is ignored by the TFHE layer.
type Ciphertext struct {
	C0, C1 rns.Poly
	IsNTT  bool
	Scale  float64
}

// NewCiphertext allocates a zero ciphertext at the given level, its 2·level
// limbs over one backing array (rns.NewPolySlab).
func NewCiphertext(p *Parameters, level int) *Ciphertext {
	limbs := rns.NewPolySlab(2*level, p.N()).Limbs
	return &Ciphertext{
		C0:    rns.Poly{Limbs: limbs[:level:level]},
		C1:    rns.Poly{Limbs: limbs[level:]},
		IsNTT: true,
		Scale: 1,
	}
}

// Level returns the number of limbs of the ciphertext.
func (ct *Ciphertext) Level() int { return ct.C0.Level() }

// CopyNew returns a deep copy.
func (ct *Ciphertext) CopyNew() *Ciphertext {
	return &Ciphertext{C0: ct.C0.Copy(), C1: ct.C1.Copy(), IsNTT: ct.IsNTT, Scale: ct.Scale}
}

// Encryptor encrypts under an RLWE secret key with deterministic randomness.
type Encryptor struct {
	params  *Parameters
	sk      *SecretKey
	sampler *ring.Sampler
}

// Decryptor recovers phases.
type Decryptor struct {
	params *Parameters
	sk     *SecretKey
}

// NewEncryptor creates an encryptor with its own random stream.
func NewEncryptor(params *Parameters, sk *SecretKey, seed uint64) *Encryptor {
	return &Encryptor{params: params, sk: sk, sampler: ring.NewSampler(seed)}
}

// NewDecryptor creates a decryptor.
func NewDecryptor(params *Parameters, sk *SecretKey) *Decryptor {
	return &Decryptor{params: params, sk: sk}
}

// EncryptZeroAtLevel returns a fresh encryption of zero at the given level in
// NTT representation: c1 uniform, c0 = -c1·s + e.
func (e *Encryptor) EncryptZeroAtLevel(level int) *Ciphertext {
	b := e.params.QBasis.AtLevel(level)
	ct := NewCiphertext(e.params, level)
	errSigned := e.sampler.GaussianSigned(e.params.N(), e.params.Sigma)
	ePoly := b.NewPoly()
	b.SetSigned(errSigned, ePoly)
	b.NTT(ePoly)
	for i := 0; i < level; i++ {
		e.sampler.UniformPoly(b.Rings[i], ct.C1.Limbs[i])
	}
	// c0 = e - c1·s  (limbs of s over Q are the first limbs of NTTQP)
	for i := 0; i < level; i++ {
		r := b.Rings[i]
		r.MulCoeffs(ct.C1.Limbs[i], e.sk.NTTQP.Limbs[i], ct.C0.Limbs[i])
		r.Sub(ePoly.Limbs[i], ct.C0.Limbs[i], ct.C0.Limbs[i])
	}
	return ct
}

// EncryptPolyAtLevel encrypts an NTT-form plaintext polynomial (already
// encoded over the first level limbs) by adding it to a fresh zero
// encryption.
func (e *Encryptor) EncryptPolyAtLevel(pt rns.Poly, level int, scale float64) *Ciphertext {
	ct := e.EncryptZeroAtLevel(level)
	e.params.QBasis.AtLevel(level).Add(ct.C0, pt, ct.C0)
	ct.Scale = scale
	return ct
}

// Phase returns c0 + c1·s over the ciphertext's level (NTT in, coefficient
// representation out).
func (d *Decryptor) Phase(ct *Ciphertext) rns.Poly {
	level := ct.Level()
	b := d.params.QBasis.AtLevel(level)
	out := b.NewPoly()
	c0, c1 := ct.C0, ct.C1
	if !ct.IsNTT {
		c0, c1 = ct.C0.Copy(), ct.C1.Copy()
		b.NTT(c0)
		b.NTT(c1)
	}
	for i := 0; i < level; i++ {
		r := b.Rings[i]
		r.MulCoeffs(c1.Limbs[i], d.sk.NTTQP.Limbs[i], out.Limbs[i])
		r.Add(out.Limbs[i], c0.Limbs[i], out.Limbs[i])
	}
	b.INTT(out)
	return out
}

// PhaseCentered returns the phase as centered big integers.
func (d *Decryptor) PhaseCentered(ct *Ciphertext) []*big.Int {
	return d.params.QBasis.AtLevel(ct.Level()).CRTReconstructCentered(d.Phase(ct))
}

// NoiseBits measures how far ct's phase is from the polynomial it should
// encrypt: log₂ of the largest centred coefficient of phase(ct) − want, with
// want in coefficient representation over ct's level (0 when they are equal).
// It is the coefficient-domain referee for a change that is equivalent only
// up to noise — ckks.Client.NoiseBits is its slot-domain sibling — and, like
// every Decryptor method, needs the secret key, so it lives in tests and
// diagnostics, never on a serving path.
func (d *Decryptor) NoiseBits(ct *Ciphertext, want rns.Poly) float64 {
	b := d.params.QBasis.AtLevel(ct.Level())
	diff := d.Phase(ct)
	b.Sub(diff, want, diff)
	worst := new(big.Int)
	for _, c := range b.CRTReconstructCentered(diff) {
		if c.CmpAbs(worst) > 0 {
			worst = c
		}
	}
	if worst.Sign() == 0 {
		return 0
	}
	mant := new(big.Float)
	exp := mant.SetInt(worst).MantExp(mant) // |worst| = |mant|·2^exp, |mant| ∈ [½, 1)
	m, _ := mant.Float64()
	return math.Log2(math.Abs(m)) + float64(exp)
}
