package rlwe

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"heap/internal/ring"
	"heap/internal/rns"
)

// Key-material serialization: gadget ciphertexts (key-switching, Galois and
// relinearization keys) and, via internal/tfhe, blind-rotate keys. This is
// the offline distribution channel of the paper's deployment: "these brk
// public keys can be computed offline and must be generated in advance"
// (§II-B) — a deployment generates them once and ships them to every
// compute node.

const magicGadget = 0x48454147 // "HEAG"

// AppendBinary appends the gadget ciphertext's serialization to b, in one
// pass: a 4-word header (magic, rows, limbs, degree), then each row's b and a
// polynomials over the full QP basis, NTT representation, limb by limb, every
// word little-endian.
func (g *GadgetCiphertext) AppendBinary(b []byte) ([]byte, error) {
	rows := len(g.B)
	if rows == 0 {
		return b, errors.New("rlwe: empty gadget ciphertext")
	}
	limbs := g.B[0].Level()
	deg := len(g.B[0].Limbs[0])
	b = slices.Grow(b, gadgetWireSize(rows, limbs, deg))
	b = appendWords(b, []uint64{magicGadget, uint64(rows), uint64(limbs), uint64(deg)})
	for j := 0; j < rows; j++ {
		for _, poly := range []rns.Poly{g.B[j], g.A[j]} {
			for i := 0; i < limbs; i++ {
				b = appendWords(b, poly.Limbs[i])
			}
		}
	}
	return b, nil
}

// gadgetWireSize is the serialized size of a gadget ciphertext: the 4-word
// header, then a b and an a polynomial per row.
func gadgetWireSize(rows, limbs, deg int) int { return 4*8 + rows*2*limbs*deg*8 }

// DecodeGadgetCiphertext decodes the gadget ciphertext at the front of b for
// the parameter set (rows/limbs/degree must match the parameters' gadget
// shape, every residue must lie below its limb's modulus) and returns it with
// the rest of b. Its limbs are b's own bytes where the host allows (wordsAt),
// so b must not change while the ciphertext is in use.
func DecodeGadgetCiphertext(b []byte, p *Parameters) (*GadgetCiphertext, []byte, error) {
	if len(b) < 4*8 {
		return nil, nil, io.ErrUnexpectedEOF
	}
	var hdr [4]uint64
	b, _ = getWords(hdr[:], b)
	if hdr[0] != magicGadget {
		return nil, nil, fmt.Errorf("rlwe: bad gadget ciphertext magic %x", hdr[0])
	}
	rows, limbs, deg := int(hdr[1]), int(hdr[2]), int(hdr[3])
	wantLimbs := p.MaxLevel() + len(p.P)
	if rows != p.DigitsAtLevel(p.MaxLevel()) || limbs != wantLimbs || deg != p.N() {
		return nil, nil, fmt.Errorf("rlwe: gadget shape %d×%d×%d incompatible with parameters", rows, limbs, deg)
	}
	if len(b) < gadgetWireSize(rows, limbs, deg)-4*8 {
		return nil, nil, io.ErrUnexpectedEOF
	}
	g := &GadgetCiphertext{B: make([]rns.Poly, rows), A: make([]rns.Poly, rows)}
	for j := 0; j < rows; j++ {
		for _, poly := range []*rns.Poly{&g.B[j], &g.A[j]} {
			poly.Limbs = make([]ring.Poly, limbs)
			for i := range poly.Limbs {
				l := wordsAt(b, deg)
				if slices.Max(l) >= p.QPBasis.Rings[i].Mod.Q {
					return nil, nil, fmt.Errorf("rlwe: gadget residue out of range for limb %d", i)
				}
				poly.Limbs[i], b = l, b[8*deg:]
			}
		}
	}
	return g, b, nil
}

// AppendBinary appends the RGSW ciphertext's serialization to b: its two
// gadget halves, C0 then C1.
func (g *RGSWCiphertext) AppendBinary(b []byte) ([]byte, error) {
	b, err := g.C0.AppendBinary(b)
	if err != nil {
		return b, err
	}
	return g.C1.AppendBinary(b)
}

// DecodeRGSWCiphertext decodes the RGSW ciphertext at the front of b — its
// two gadget halves, see DecodeGadgetCiphertext — and returns it with the
// rest of b.
func DecodeRGSWCiphertext(b []byte, p *Parameters) (*RGSWCiphertext, []byte, error) {
	c0, b, err := DecodeGadgetCiphertext(b, p)
	if err != nil {
		return nil, nil, err
	}
	c1, b, err := DecodeGadgetCiphertext(b, p)
	if err != nil {
		return nil, nil, err
	}
	return &RGSWCiphertext{C0: c0, C1: c1}, b, nil
}
