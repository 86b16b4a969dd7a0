package rlwe

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"heap/internal/ring"
	"heap/internal/rns"
)

// Wire format for ciphertexts — the software analog of the paper's CMAC
// data streaming between FPGAs (§V): little-endian, length-prefixed limb
// data. The §V system streams LWE ciphertexts from the primary to the
// secondaries and RLWE accumulators back; internal/cluster uses exactly
// these encodings over its node channels.

const (
	magicRLWE = 0x48454150 // "HEAP"
	magicLWE  = 0x4845414c // "HEAL"
)

// WriteTo serializes the ciphertext.
func (ct *Ciphertext) WriteTo(w io.Writer) (int64, error) {
	var n int64
	write := func(v any) error {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	level := ct.Level()
	deg := len(ct.C0.Limbs[0])
	hdr := []uint64{magicRLWE, uint64(level), uint64(deg), boolU64(ct.IsNTT), math.Float64bits(ct.Scale)}
	if err := write(hdr); err != nil {
		return n, err
	}
	for _, poly := range []rns.Poly{ct.C0, ct.C1} {
		for i := 0; i < level; i++ {
			if err := write([]uint64(poly.Limbs[i])); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// ReadCiphertext deserializes a ciphertext; the parameter set provides the
// basis (the level and degree must be consistent with it).
func ReadCiphertext(r io.Reader, p *Parameters) (*Ciphertext, error) {
	hdr := make([]uint64, 5)
	if err := binary.Read(r, binary.LittleEndian, hdr); err != nil {
		return nil, err
	}
	if hdr[0] != magicRLWE {
		return nil, fmt.Errorf("rlwe: bad RLWE ciphertext magic %x", hdr[0])
	}
	level, deg := int(hdr[1]), int(hdr[2])
	if level < 1 || level > p.MaxLevel() || deg != p.N() {
		return nil, fmt.Errorf("rlwe: ciphertext shape %d×%d incompatible with parameters", level, deg)
	}
	ct := NewCiphertext(p, level)
	ct.IsNTT = hdr[3] == 1
	ct.Scale = math.Float64frombits(hdr[4])
	for _, poly := range []rns.Poly{ct.C0, ct.C1} {
		for i := 0; i < level; i++ {
			if err := binary.Read(r, binary.LittleEndian, []uint64(poly.Limbs[i])); err != nil {
				return nil, err
			}
			// Validate residues against the limb modulus.
			q := p.Q[i]
			for _, v := range poly.Limbs[i] {
				if v >= q {
					return nil, fmt.Errorf("rlwe: residue %d out of range for limb %d", v, i)
				}
			}
		}
	}
	return ct, nil
}

// WriteTo serializes an LWE ciphertext (the §III-C ~2.3 KB objects the
// primary node fans out).
func (ct *LWECiphertext) WriteTo(w io.Writer) (int64, error) {
	hdr := []uint64{magicLWE, uint64(len(ct.A)), ct.Q, ct.B}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		return 0, err
	}
	if err := binary.Write(w, binary.LittleEndian, ct.A); err != nil {
		return int64(binary.Size(hdr)), err
	}
	return int64(binary.Size(hdr) + 8*len(ct.A)), nil
}

// ReadLWECiphertext deserializes an LWE ciphertext.
func ReadLWECiphertext(r io.Reader) (*LWECiphertext, error) {
	hdr := make([]uint64, 4)
	if err := binary.Read(r, binary.LittleEndian, hdr); err != nil {
		return nil, err
	}
	if hdr[0] != magicLWE {
		return nil, fmt.Errorf("rlwe: bad LWE ciphertext magic %x", hdr[0])
	}
	n := int(hdr[1])
	if n < 1 || n > 1<<20 {
		return nil, fmt.Errorf("rlwe: unreasonable LWE dimension %d", n)
	}
	ct := &LWECiphertext{A: make([]uint64, n), Q: hdr[2], B: hdr[3]}
	if err := binary.Read(r, binary.LittleEndian, ct.A); err != nil {
		return nil, err
	}
	return ct, nil
}

// CiphertextWireSize is the wire size of an RLWE ciphertext at the given
// level under p — the framing hook transport layers use to bound payload
// allocations before decoding.
func CiphertextWireSize(p *Parameters, level int) int {
	return 5*8 + 2*level*p.N()*8
}

// LWEWireSize is the wire size of an LWE ciphertext of the given dimension.
func LWEWireSize(dim int) int { return 4*8 + 8*dim }

// Validate checks a (typically freshly deserialized) LWE ciphertext against
// the dimension and modulus a consumer expects: transport layers call this
// before handing the ciphertext to BlindRotate, whose preconditions are
// panics rather than errors.
func (ct *LWECiphertext) Validate(dim int, q uint64) error {
	if len(ct.A) != dim {
		return fmt.Errorf("rlwe: LWE dimension %d, want %d", len(ct.A), dim)
	}
	if ct.Q != q {
		return fmt.Errorf("rlwe: LWE modulus %d, want %d", ct.Q, q)
	}
	if ct.B >= q {
		return fmt.Errorf("rlwe: LWE body %d out of range for modulus %d", ct.B, q)
	}
	for i, a := range ct.A {
		if a >= q {
			return fmt.Errorf("rlwe: LWE component %d = %d out of range for modulus %d", i, a, q)
		}
	}
	return nil
}

func boolU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

var _ = ring.DefaultSigma
