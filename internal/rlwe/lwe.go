package rlwe

import (
	"fmt"
	"math/bits"

	"heap/internal/ring"
)

func mul128(a, b uint64) (hi, lo uint64) { return bits.Mul64(a, b) }

func div128(hi, lo, d uint64) (quo, rem uint64) { return bits.Div64(hi%d, lo, d) }

// LWECiphertext is a plain LWE ciphertext (a⃗, b) over a single modulus Q
// (not necessarily prime — the scheme-switching pipeline uses both a prime
// limb and the power-of-two modulus 2N). It decrypts to b + ⟨a⃗, s⃗⟩ mod Q.
type LWECiphertext struct {
	A []uint64
	B uint64
	Q uint64
}

// CopyNew returns a deep copy of the ciphertext.
func (ct *LWECiphertext) CopyNew() *LWECiphertext {
	return &LWECiphertext{A: append([]uint64(nil), ct.A...), B: ct.B, Q: ct.Q}
}

// DecryptLWE returns the centered phase b + ⟨a, s⟩ mod Q of ct under the
// signed secret s.
func DecryptLWE(ct *LWECiphertext, s []int64) int64 {
	q := ct.Q
	acc := ct.B % q
	for i, ai := range ct.A {
		ai %= q
		switch {
		case s[i] == 1:
			acc += ai
		case s[i] == -1:
			acc += q - ai
		case s[i] > 1 || s[i] < -1:
			panic("rlwe: DecryptLWE supports ternary secrets only")
		}
		if acc >= q {
			acc -= q
		}
	}
	return ring.CenteredRep(acc, q)
}

// ExtractLWE implements the paper's Extract operation (Eq. 2): it pulls
// coefficient idx of a single-limb RLWE ciphertext (coefficient
// representation, modulus q_0) out as an LWE ciphertext of dimension N under
// the coefficient vector of the RLWE secret:
//
//	a⃗^{(i)} = (a_i, a_{i-1}, …, a_0, −a_{N-1}, …, −a_{i+1}),  b = c0_i.
func ExtractLWE(p *Parameters, ct *Ciphertext, idx int) *LWECiphertext {
	if ct.IsNTT {
		panic("rlwe: ExtractLWE requires coefficient representation")
	}
	if ct.Level() != 1 {
		panic("rlwe: ExtractLWE requires a single-limb ciphertext")
	}
	return ExtractLWEFromPolys(ct.C0.Limbs[0], ct.C1.Limbs[0], p.Q[0], idx)
}

// ExtractLWEFromPolys is ExtractLWE for raw polynomial pairs over an
// explicit modulus (used on the mod-2N floor-divided ciphertext of the
// scheme-switching bootstrap, which is not an RNS object).
func ExtractLWEFromPolys(c0, c1 []uint64, q uint64, idx int) *LWECiphertext {
	out := &LWECiphertext{A: make([]uint64, len(c1)), B: c0[idx] % q, Q: q}
	n := len(c1)
	for k := 0; k <= idx; k++ {
		out.A[k] = c1[idx-k] % q
	}
	for k := idx + 1; k < n; k++ {
		v := c1[n+idx-k] % q
		if v != 0 {
			v = q - v
		}
		out.A[k] = v
	}
	return out
}

// LWEKeySwitchKey switches LWE ciphertexts from an NFrom-dimensional secret
// to an NTo-dimensional one at modulus Q with an unsigned digit decomposition
// in base 2^LogBase. Row (i, j) encrypts sFrom_i · Base^j under sTo; all rows
// live in one slice, row-major [from][digit][NTo+1] with the body b as each
// row's last word, so a key switch walks the key front to back.
type LWEKeySwitchKey struct {
	rows    []uint64
	Q       uint64
	LogBase int
	Digits  int
	NFrom   int
	NTo     int
}

// SizeBytes returns the in-memory size of the key's rows.
func (k *LWEKeySwitchKey) SizeBytes() int { return 8 * len(k.rows) }

// GenLWEKeySwitchKey generates the N→n_t LWE key-switching key at modulus q
// ("the key switching key is a vector of h·N·d LWE ciphertexts", §II-B).
func GenLWEKeySwitchKey(sFrom, sTo []int64, q uint64, logBase int, sampler *ring.Sampler, sigma float64) *LWEKeySwitchKey {
	digits := 0
	for b := q - 1; b > 0; b >>= uint(logBase) {
		digits++
	}
	// Apply sums NFrom·digits products digit·word (plus the input body) per
	// output word before reducing once: the sum must fit 128 bits.
	if logBase+bits.Len64(q)+bits.Len(uint(len(sFrom)*digits+1)) > 128 {
		panic("rlwe: LWE key-switch accumulation would overflow 128 bits")
	}
	w := len(sTo) + 1
	k := &LWEKeySwitchKey{
		rows:    make([]uint64, len(sFrom)*digits*w),
		Q:       q,
		LogBase: logBase,
		Digits:  digits,
		NFrom:   len(sFrom),
		NTo:     len(sTo),
	}
	var e [1]int64
	for i := range sFrom {
		pow := uint64(1)
		for j := 0; j < digits; j++ {
			row := k.rows[(i*digits+j)*w:][:w]
			a := row[:len(sTo)]
			for t := range a {
				a[t] = sampler.UniformMod(q)
			}
			// b = m + e − ⟨a, sTo⟩
			msg := mulModU(signedModU(sFrom[i], q), pow%q, q)
			sampler.GaussianInto(e[:], sigma)
			acc := addModU(msg, signedModU(e[0], q), q)
			for t, at := range a {
				switch sTo[t] {
				case 1:
					acc = subModU(acc, at, q)
				case -1:
					acc = addModU(acc, at, q)
				}
			}
			row[len(sTo)] = acc
			pow = mulModU(pow, 1<<uint(logBase), q)
		}
	}
	return k
}

// LWEKeySwitchScratch holds one key switch in flight: the unreduced 128-bit
// sum of every output word, the body's last.
type LWEKeySwitchScratch []struct{ lo, hi uint64 }

// NewScratch allocates the sums for a key switch under k.
func (k *LWEKeySwitchKey) NewScratch() LWEKeySwitchScratch {
	return make(LWEKeySwitchScratch, k.NTo+1)
}

// accumulate adds Σ_j digit_j(v) · row(i, j) to acc without reducing. The
// sums stay below 2^128 (checked at key generation), so the modulus — prime
// or power of two — is only needed by the one reduction per output word that
// follows the last source coefficient, and the residue is the one the
// reduce-every-term form reaches. v must be canonical (< Q).
func (k *LWEKeySwitchKey) accumulate(acc LWEKeySwitchScratch, i int, v uint64) {
	w, shift := k.NTo+1, uint(k.LogBase)
	mask := uint64(1)<<shift - 1
	rows := k.rows[i*k.Digits*w : (i+1)*k.Digits*w]
	acc = acc[:w]
	for ; v != 0 && len(rows) != 0; v, rows = v>>shift, rows[w:] {
		d := v & mask
		if d == 0 {
			continue
		}
		for t, r := range rows[:w] {
			hi, lo := bits.Mul64(d, r)
			var c uint64
			acc[t].lo, c = bits.Add64(acc[t].lo, lo, 0)
			acc[t].hi += hi + c
		}
	}
}

// reduce returns the canonical residues of the sums: the mask into a, the
// body as the result.
func (k *LWEKeySwitchKey) reduce(acc LWEKeySwitchScratch, a []uint64) (b uint64) {
	for t := range a {
		a[t] = bits.Rem64(acc[t].hi, acc[t].lo, k.Q)
	}
	return bits.Rem64(acc[k.NTo].hi, acc[k.NTo].lo, k.Q)
}

// Apply key-switches ct (dimension NFrom, modulus Q) to dimension NTo.
func (k *LWEKeySwitchKey) Apply(ct *LWECiphertext) *LWECiphertext {
	if ct.Q != k.Q {
		panic("rlwe: LWE key-switch modulus mismatch")
	}
	if len(ct.A) != k.NFrom {
		panic(fmt.Sprintf("rlwe: LWE key switch of a dimension-%d ciphertext under a key from dimension %d", len(ct.A), k.NFrom))
	}
	acc := k.NewScratch()
	acc[k.NTo].lo = ct.B % k.Q
	for i, ai := range ct.A {
		k.accumulate(acc, i, ai%k.Q)
	}
	out := &LWECiphertext{A: make([]uint64, k.NTo), Q: k.Q}
	out.B = k.reduce(acc, out.A)
	return out
}

// ExtractSwitchBatch is the bootstrap's per-coefficient chain for every
// coefficient idx[l] of the polynomial pair (c0, c1), into out[l]:
//
//	ModSwitchLWE(k.Apply(ScaleUpLWE(ExtractLWEFromPolys(c0, c1, q, idx[l]), t)), q)
//
// for q = Q >> t, word for word, in one key-major pass and without the two
// N-word ciphertexts the composition allocates per coefficient. The outer
// loop walks source index × digit, so each key row is read once for the
// whole batch and broadcast against the digits of every extraction
// (ring.MACDigitOuter) into sums laid out [NTo+1][len(idx)]. Q must be a
// power of two — the bootstrap's 2N·2^ScaleUpBits — so wrap-around uint64
// sums are exact mod Q, and the base at most 2^32. The digit rows below
// t/LogBase multiply the zero low bits of the lifted input and are skipped
// whole. c0 and c1 must hold canonical residues mod q; the outputs share one
// backing array per call.
func (k *LWEKeySwitchKey) ExtractSwitchBatch(c0, c1 []uint64, idx []int, t uint, out []*LWECiphertext) {
	n := len(c1)
	if n != k.NFrom {
		panic(fmt.Sprintf("rlwe: LWE key switch of a dimension-%d extraction under a key from dimension %d", n, k.NFrom))
	}
	if k.Q&(k.Q-1) != 0 || k.LogBase > 32 {
		panic(fmt.Sprintf("rlwe: key-major LWE key switch needs a power-of-two modulus and a base of at most 2^32 (Q=%d, LogBase=%d)", k.Q, k.LogBase))
	}
	m, w := len(idx), k.NTo+1
	if len(out) != m {
		panic(fmt.Sprintf("rlwe: %d outputs for %d extractions", len(out), m))
	}
	q, shift := k.Q>>t, uint(k.LogBase)
	mask := uint64(1)<<shift - 1
	buf := make([]uint64, (w+1)*m)
	acc, x := buf[:w*m], buf[w*m:]
	body := acc[k.NTo*m:]
	for l, i := range idx {
		body[l] = c0[i] << t
	}
	first := int(t) / k.LogBase
	for s := 0; s < n; s++ {
		for l, i := range idx {
			if j := i - s; j >= 0 {
				x[l] = c1[j] << t
			} else if v := c1[j+n]; v != 0 {
				x[l] = (q - v) << t
			} else {
				x[l] = 0
			}
		}
		rows := k.rows[(s*k.Digits+first)*w : (s+1)*k.Digits*w]
		for j := first; j < k.Digits; j, rows = j+1, rows[w:] {
			ring.MACDigitOuter(acc, rows[:w], x, uint(j)*shift, mask)
		}
	}
	words := make([]uint64, m*k.NTo)
	cts := make([]LWECiphertext, m)
	for l := range cts {
		ct := &cts[l]
		ct.A, ct.Q = words[l*k.NTo:(l+1)*k.NTo:(l+1)*k.NTo], q
		for i := range ct.A {
			ct.A[i] = divRound(acc[i*m+l]&(k.Q-1), k.Q, q)
		}
		ct.B = divRound(body[l]&(k.Q-1), k.Q, q)
		out[l] = ct
	}
}

// ModSwitchLWE rescales every component of ct from modulus ct.Q to newQ with
// rounding — the paper's ModulusSwitch ("each element in LWE is switched
// from the modulus q to the modulus 2N", §II-B).
func ModSwitchLWE(ct *LWECiphertext, newQ uint64) *LWECiphertext {
	out := &LWECiphertext{A: make([]uint64, len(ct.A)), Q: newQ}
	out.B = divRound(ct.B, ct.Q, newQ)
	for i, a := range ct.A {
		out.A[i] = divRound(a, ct.Q, newQ)
	}
	return out
}

// ScaleUpLWE multiplies every component by 2^t exactly, moving ct from
// modulus Q to modulus Q·2^t. This lossless lift lets the dimension-reducing
// key switch run at a large modulus so its noise, once switched back down,
// stays far below one unit of the target modulus.
func ScaleUpLWE(ct *LWECiphertext, t uint) *LWECiphertext {
	newQ := ct.Q << t
	out := &LWECiphertext{A: make([]uint64, len(ct.A)), B: (ct.B % ct.Q) << t, Q: newQ}
	for i, a := range ct.A {
		out.A[i] = (a % ct.Q) << t
	}
	return out
}

// divRound computes round(x · newQ / oldQ) mod newQ.
func divRound(x, oldQ, newQ uint64) uint64 {
	// x, moduli < 2^61 in all uses; use big-free 128-bit arithmetic.
	hi, lo := mul128(x%oldQ, newQ)
	q, r := div128(hi, lo, oldQ)
	if 2*r >= oldQ {
		q++
	}
	return q % newQ
}

func signedModU(v int64, q uint64) uint64 {
	if v >= 0 {
		return uint64(v) % q
	}
	return q - uint64(-v)%q
}

func addModU(a, b, q uint64) uint64 {
	c := a + b
	if c >= q {
		c -= q
	}
	return c
}

func subModU(a, b, q uint64) uint64 {
	if a >= b {
		return a - b
	}
	return q - b + a
}

func mulModU(a, b, q uint64) uint64 {
	hi, lo := mul128(a%q, b%q)
	_, r := div128(hi, lo, q)
	return r
}
