// Package tfhe implements the TFHE-side operations of the paper: blind-rotate
// key generation, the BlindRotate operation (Algorithm 1, ternary-secret
// form: one external product per LWE mask element, against RGSW(s_i⁺) and
// RGSW(s_i⁻) at once; a binary secret has no s_i⁻ term and takes a plain
// CMux), negacyclic lookup-table construction, CMux, and programmable
// bootstrapping (PBS, §VII-A). It is built directly on the shared
// rlwe substrate — in particular the ExternalProduct kernel — so the CKKS
// KeySwitch and TFHE BlindRotate literally share one datapath, as the HEAP
// microarchitecture does (§IV-A, §IV-E).
package tfhe

import (
	"fmt"
	"math/big"

	"heap/internal/rlwe"
	"heap/internal/rns"
)

// BlindRotateKey is the brk of the paper: for every coefficient of the LWE
// secret s⃗, RGSW encryptions of s_i⁺ and s_i⁻ under the RLWE secret
// (brk = {RGSW(s_i⁺), RGSW(s_i⁻)}, §II-B). A binary secret has no s_i⁻
// term — every s_i⁻ would encrypt zero — so its key carries Plus only and
// Minus is nil: the rows are neither generated, held, serialized nor shipped.
type BlindRotateKey struct {
	Plus  []*rlwe.RGSWCiphertext
	Minus []*rlwe.RGSWCiphertext
	// Binary records that the source secret was binary: an iteration is then
	// one CMux against Plus[i] (cmuxStep) instead of the two-key product
	// (ternaryStep).
	Binary bool
}

// GenBlindRotateKey encrypts the LWE secret coefficientwise as RGSW
// ciphertexts under the RLWE secret rsk. The key kind follows the secret's
// distribution (lweSK.Dist), not its sampled values.
func GenBlindRotateKey(kg *rlwe.KeyGenerator, lweSK *rlwe.LWESecretKey, rsk *rlwe.SecretKey) *BlindRotateKey {
	n := len(lweSK.Signed)
	brk := &BlindRotateKey{
		Plus:   make([]*rlwe.RGSWCiphertext, n),
		Binary: lweSK.Dist == rlwe.SecretBinary,
	}
	if !brk.Binary {
		brk.Minus = make([]*rlwe.RGSWCiphertext, n)
	}
	// One list of constants in draw order — index by index, Plus then Minus
	// — so the whole key is one pipeline of rows.
	ms := make([]int64, 0, 2*n)
	for _, s := range lweSK.Signed {
		if s < -1 || s > 1 || brk.Binary && s == -1 {
			panic(fmt.Sprintf("tfhe: LWE secret coefficient %d does not fit its distribution (binary=%v)", s, brk.Binary))
		}
		ms = append(ms, max(s, 0))
		if !brk.Binary {
			ms = append(ms, max(-s, 0))
		}
	}
	rows := kg.GenRGSWConstants(ms, rsk)
	if brk.Binary {
		copy(brk.Plus, rows)
		return brk
	}
	for i := range brk.Plus {
		brk.Plus[i], brk.Minus[i] = rows[2*i], rows[2*i+1]
	}
	return brk
}

// NumKeys returns n_t, the LWE dimension covered by the key.
func (k *BlindRotateKey) NumKeys() int { return len(k.Plus) }

// CheckShape reports whether the key's rows match its kind: a binary key
// carries no Minus rows, a ternary key one per Plus row, and no row is nil.
func (k *BlindRotateKey) CheckShape() error {
	if k.Binary && k.Minus != nil {
		return fmt.Errorf("tfhe: binary blind-rotate key carries %d Minus rows", len(k.Minus))
	}
	if !k.Binary && len(k.Minus) != len(k.Plus) {
		return fmt.Errorf("tfhe: ternary blind-rotate key has %d Minus rows for %d Plus rows", len(k.Minus), len(k.Plus))
	}
	for i := range k.Plus {
		if k.Plus[i] == nil || !k.Binary && k.Minus[i] == nil {
			return fmt.Errorf("tfhe: blind-rotate key index %d is missing a row", i)
		}
	}
	return nil
}

// SizeBytes returns the in-memory size of the key's rows, for the §III-C
// key-traffic accounting and the serving registry's byte budget.
func (k *BlindRotateKey) SizeBytes() int {
	total := 0
	for _, rows := range [][]*rlwe.RGSWCiphertext{k.Plus, k.Minus} {
		for _, g := range rows {
			total += rgswBytes(g)
		}
	}
	return total
}

// PerKeyBytes returns the in-memory size of the RGSW material one key index
// streams through the blind-rotate datapath: the Plus ciphertext, plus the
// Minus ciphertext for a ternary key. This is the unit of the
// brk_bytes_streamed counter.
func (k *BlindRotateKey) PerKeyBytes() int {
	if len(k.Plus) == 0 {
		return 0
	}
	b := rgswBytes(k.Plus[0])
	if !k.Binary {
		b += rgswBytes(k.Minus[0])
	}
	return b
}

func rgswBytes(g *rlwe.RGSWCiphertext) int { return g.C0.SizeBytes() + g.C1.SizeBytes() }

// LookupTable is a negacyclic test polynomial f over the full Q basis
// (coefficient representation) together with the level it lives at. The
// blind rotation of an LWE ciphertext with phase u produces an RLWE
// ciphertext whose constant coefficient encrypts the programmed g(u).
type LookupTable struct {
	Poly  rns.Poly
	Level int
}

// NewLUTFromBig programs g: the blind rotation of an LWE ciphertext (mod 2N)
// with signed phase u ∈ [−N/2, N/2) yields g(u) mod Q in the constant
// coefficient. Values outside that range alias negacyclically (g(u±N) =
// −g(u)); callers must guarantee |u| < N/2, which the scheme-switching
// bootstrapper does via its n_t-dimensional binary LWE secret.
func NewLUTFromBig(p *rlwe.Parameters, level int, g func(u int) *big.Int) *LookupTable {
	n := p.N()
	b := p.QBasis.AtLevel(level)
	f := b.NewPoly()
	// Mapping derived from (f·X^u)_0 in Z[X]/(X^N+1):
	//   f_0 = g(0);  f_j = g(−j) for 1 ≤ j ≤ N/2;  f_j = −g(N−j) for j > N/2.
	// g is called once per coefficient and its value reduced into every limb.
	qs := make([]*big.Int, level)
	for i := range qs {
		qs[i] = new(big.Int).SetUint64(b.Rings[i].Mod.Q)
	}
	r := new(big.Int)
	for j := 0; j < n; j++ {
		var v *big.Int
		if j <= n/2 {
			v = g(-j)
		} else {
			v = new(big.Int).Neg(g(n - j))
		}
		for i, q := range qs {
			f.Limbs[i][j] = r.Mod(v, q).Uint64()
		}
	}
	return &LookupTable{Poly: f, Level: level}
}

// NewLUTFromFunc programs a small signed integer function, scaled by scale —
// the staircase form used by classic TFHE programmable bootstrapping over a
// message space of size 2·t: g(u) = scale · f(round(u·t/N)).
func NewLUTFromFunc(p *rlwe.Parameters, level int, t int, scale int64, f func(m int) int64) *LookupTable {
	n := p.N()
	// One message unit Δ = q/(2t) maps to Δ·2N/q = N/t phase units after
	// the switch to modulus 2N.
	window := n / t
	return NewLUTFromBig(p, level, func(u int) *big.Int {
		// Map phase to the nearest message value, rounding half up.
		m := (u + window/2) / window
		if u < 0 {
			m = -((-u + window/2) / window)
		}
		return new(big.Int).Mul(big.NewInt(f(m)), big.NewInt(scale))
	})
}
