package ckks

import (
	"fmt"

	"heap/internal/rlwe"
	"heap/internal/rns"
)

// LinearTransform is a homomorphic slot-space matrix-vector product
// M·z = Σ_k diag_k(M) ⊙ rot_k(z), evaluated with the baby-step giant-step
// split k = g·a + b that the CKKS bootstrapping literature uses for its
// homomorphic DFTs ([28], [10] in the paper's related-work discussion).
type LinearTransform struct {
	Slots int
	Level int     // level the diagonals are encoded at
	Scale float64 // plaintext scale of the diagonals
	G     int     // baby-step count

	// Pre-rotated encoded diagonals: diags[k] = encode(rot_{-g·⌊k/g⌋}(diag_k)).
	diags map[int]rns.Poly
}

// NewLinearTransform encodes the nonzero diagonals of the slots×slots matrix
// m (row, col indexed) at the given level and scale.
func NewLinearTransform(enc *Encoder, m func(row, col int) complex128, slots, level int, scale float64) *LinearTransform {
	g := 1 << (bitsLen(slots) / 2)
	if g < 1 {
		g = 1
	}
	lt := &LinearTransform{Slots: slots, Level: level, Scale: scale, G: g, diags: make(map[int]rns.Poly)}
	diag := make([]complex128, slots)
	for k := 0; k < slots; k++ {
		nonzero := false
		for j := 0; j < slots; j++ {
			diag[j] = m(j, (j+k)%slots)
			if diag[j] != 0 {
				nonzero = true
			}
		}
		if !nonzero {
			continue
		}
		// Pre-rotate by −g·⌊k/g⌋ so the giant-step rotation lands right.
		shift := g * (k / g)
		rotated := make([]complex128, slots)
		for j := 0; j < slots; j++ {
			rotated[j] = diag[((j-shift)%slots+slots)%slots]
		}
		lt.diags[k] = enc.EncodeAtLevel(rotated, scale, level)
	}
	return lt
}

func bitsLen(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// EvalLinearTransform applies lt to ct. The result has scale
// ct.Scale·lt.Scale; the caller rescales.
func (ev *Evaluator) EvalLinearTransform(ct *rlwe.Ciphertext, lt *LinearTransform) *rlwe.Ciphertext {
	level := ct.Level()
	if lt.Level < level {
		level = lt.Level
	}
	in := ct
	if in.Level() > level {
		in = ev.DropLevels(in, in.Level()-level)
	}

	// Baby rotations (computed lazily), hoisted: all baby steps rotate the
	// same input, so its c1 component is gadget-decomposed once and every
	// rotation reuses the digits — G−1 permute+MAC tails for the price of a
	// single decomposition (ARK's decompose-once/apply-many key reuse). The
	// giant steps below rotate distinct partial sums and keep the plain path.
	var hoisted *rlwe.Hoisted
	babies := map[int]*rlwe.Ciphertext{0: in}
	baby := func(b int) *rlwe.Ciphertext {
		if c, ok := babies[b]; ok {
			return c
		}
		g := ev.Params.QBasis.Rings[0].GaloisElementForRotation(b)
		gk, ok := ev.Keys.galoisKey(g)
		if !ok {
			panic(fmt.Sprintf("ckks: missing rotation key for k=%d (galois %d)", b, g))
		}
		if hoisted == nil {
			hoisted = ev.KS.Decompose(in.C1)
		}
		c := ev.KS.ApplyGaloisHoisted(in, hoisted, g, gk)
		babies[b] = c
		return c
	}

	var out *rlwe.Ciphertext
	maxA := 0
	for k := range lt.diags {
		if a := k / lt.G; a > maxA {
			maxA = a
		}
	}
	for a := 0; a <= maxA; a++ {
		var inner *rlwe.Ciphertext
		for b := 0; b < lt.G; b++ {
			pt, ok := lt.diags[a*lt.G+b]
			if !ok {
				continue
			}
			term := ev.MulPlain(baby(b), pt.AtLevel(level), lt.Scale)
			if inner == nil {
				inner = term
			} else {
				inner = ev.Add(inner, term)
			}
		}
		if inner == nil {
			continue
		}
		if a > 0 {
			inner = ev.Rotate(inner, a*lt.G)
		}
		if out == nil {
			out = inner
		} else {
			out = ev.Add(out, inner)
		}
	}
	if out == nil {
		z := rlwe.NewCiphertext(ev.Params.Parameters, level)
		z.Scale = ct.Scale * lt.Scale
		return z
	}
	return out
}

// MulConstToScale multiplies ct by the complex constant c and rescales so
// the output lands exactly at targetScale — the scale-management primitive
// that keeps the bootstrapping pipeline's additions aligned.
func (ev *Evaluator) MulConstToScale(ct *rlwe.Ciphertext, c complex128, targetScale float64) *rlwe.Ciphertext {
	level := ct.Level()
	qLast := float64(ev.Params.Q[level-1])
	aux := targetScale * qLast / ct.Scale
	if aux < 1 {
		panic("ckks: MulConstToScale would lose all precision (aux scale < 1)")
	}
	out := ev.Rescale(ev.MulByComplexConst(ct, c, aux))
	out.Scale = targetScale
	return out
}

// RescaleToScale rescales and pins the tracked scale to targetScale
// (absorbing the ~2^-40 relative drift between the true and tracked scale).
func (ev *Evaluator) RescaleToScale(ct *rlwe.Ciphertext, targetScale float64) *rlwe.Ciphertext {
	out := ev.Rescale(ct)
	if r := out.Scale / targetScale; r < 0.99 || r > 1.01 {
		panic("ckks: RescaleToScale drift exceeds 1%")
	}
	out.Scale = targetScale
	return out
}
