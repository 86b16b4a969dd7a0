package rlwe

import "heap/internal/rns"

// Allocating convenience forms of the scratch-arena kernels. Production code
// calls the Into forms with an arena it owns; the tests keep these so a
// one-line call can stand for "fresh output, fresh-or-pooled scratch".

// SwitchPoly is SwitchPolyInto with freshly allocated outputs.
func (ks *KeySwitcher) SwitchPoly(c rns.Poly, gct *GadgetCiphertext) (d0, d1 rns.Poly) {
	b := ks.params.QBasis.AtLevel(c.Level())
	d0, d1 = b.NewPoly(), b.NewPoly()
	sc := ks.getScratch()
	ks.SwitchPolyInto(c, gct, d0, d1, sc)
	ks.putScratch(sc)
	return d0, d1
}

// ExternalProduct is ExternalProductInto with a freshly allocated output.
func (ks *KeySwitcher) ExternalProduct(ct *Ciphertext, rgsw *RGSWCiphertext) *Ciphertext {
	out := NewCiphertext(ks.params, ct.Level())
	sc := ks.getScratch()
	ks.ExternalProductInto(out, ct, rgsw, sc)
	ks.putScratch(sc)
	return out
}
