package rlwe

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"unsafe"

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

// Every encoder appends an object's words to one byte buffer in one pass:
// the caller's (the keys' AppendBinary) or, for a ciphertext's WriteTo, a
// pooled one handed to the writer in one call. A ciphertext's decoder reads
// its header and then its words into a pooled buffer in one call each, and
// decodes and range-checks the words in one pass; a key's decoder
// (DecodeGadgetCiphertext) takes the received bytes themselves.
var wireBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeWire appends an encoding to a pooled buffer with fill and writes the
// buffer in one call, returning the count written.
func writeWire(w io.Writer, fill func(b []byte) []byte) (int64, error) {
	bp := wireBufs.Get().(*[]byte)
	defer wireBufs.Put(bp)
	*bp = fill((*bp)[:0])
	n, err := w.Write(*bp)
	return int64(n), err
}

// readWire reads the next n bytes of r into the pooled buffer *bp, growing it
// if it must, and returns them.
func readWire(r io.Reader, bp *[]byte, n int) ([]byte, error) {
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	_, err := io.ReadFull(r, *bp)
	return *bp, err
}

// appendWords appends the little-endian encoding of words to b.
func appendWords(b []byte, words []uint64) []byte {
	n := len(b)
	b = slices.Grow(b, 8*len(words))[:n+8*len(words)]
	out := b[n:]
	for i, v := range words {
		binary.LittleEndian.PutUint64(out[8*i:8*i+8], v)
	}
	return b
}

// littleEndian reports whether the host stores a word as the wire does.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// wordsAt returns the n little-endian words at the front of b. On a
// little-endian host, when b starts 8-byte aligned, they are b's own bytes
// seen as words, not a copy: a key decoded from a received blob lives in the
// blob's memory instead of beside it. Otherwise they are decoded into a new
// slice.
func wordsAt(b []byte, n int) []uint64 {
	b = b[:8*n]
	if ptr := unsafe.Pointer(unsafe.SliceData(b)); littleEndian && uintptr(ptr)%8 == 0 {
		return unsafe.Slice((*uint64)(ptr), n)
	}
	words := make([]uint64, n)
	getWords(words, b)
	return words
}

// getWords decodes len(words) little-endian words from the front of src and
// returns the rest of src and the largest word decoded.
func getWords(words []uint64, src []byte) ([]byte, uint64) {
	in := src[:8*len(words)]
	var top uint64
	for i := range words {
		v := binary.LittleEndian.Uint64(in[8*i : 8*i+8])
		words[i] = v
		top = max(top, v)
	}
	return src[8*len(words):], top
}

// firstOutOfRange returns the first word of limb that is not below q.
func firstOutOfRange(limb []uint64, q uint64) uint64 {
	for _, v := range limb {
		if v >= q {
			return v
		}
	}
	return 0
}

// WriteTo serializes the ciphertext.
func (ct *Ciphertext) WriteTo(w io.Writer) (int64, error) {
	return writeWire(w, func(b []byte) []byte {
		level := ct.Level()
		deg := len(ct.C0.Limbs[0])
		b = slices.Grow(b, 5*8+2*level*deg*8)
		b = appendWords(b, []uint64{magicRLWE, uint64(level), uint64(deg), boolU64(ct.IsNTT), math.Float64bits(ct.Scale)})
		for _, poly := range []rns.Poly{ct.C0, ct.C1} {
			for i := 0; i < level; i++ {
				b = appendWords(b, poly.Limbs[i])
			}
		}
		return b
	})
}

// ReadCiphertext deserializes a ciphertext; the parameter set provides the
// basis (the level and degree must be consistent with it).
func ReadCiphertext(r io.Reader, p *Parameters) (*Ciphertext, error) {
	bp := wireBufs.Get().(*[]byte)
	defer wireBufs.Put(bp)
	raw, err := readWire(r, bp, 5*8)
	if err != nil {
		return nil, err
	}
	var hdr [5]uint64
	getWords(hdr[:], raw)
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
	rest, err := readWire(r, bp, 2*level*deg*8)
	if err != nil {
		return nil, err
	}
	for _, poly := range []rns.Poly{ct.C0, ct.C1} {
		for i := 0; i < level; i++ {
			var top uint64
			// Validate residues against the limb modulus.
			if rest, top = getWords(poly.Limbs[i], rest); top >= p.Q[i] {
				return nil, fmt.Errorf("rlwe: residue %d out of range for limb %d", firstOutOfRange(poly.Limbs[i], p.Q[i]), i)
			}
		}
	}
	return ct, nil
}

// WriteTo serializes an LWE ciphertext (the §III-C ~2.3 KB objects the
// primary node fans out).
func (ct *LWECiphertext) WriteTo(w io.Writer) (int64, error) {
	return writeWire(w, func(b []byte) []byte {
		b = slices.Grow(b, LWEWireSize(len(ct.A)))
		return appendWords(appendWords(b, []uint64{magicLWE, uint64(len(ct.A)), ct.Q, ct.B}), ct.A)
	})
}

// ReadLWECiphertext deserializes an LWE ciphertext.
func ReadLWECiphertext(r io.Reader) (*LWECiphertext, error) {
	bp := wireBufs.Get().(*[]byte)
	defer wireBufs.Put(bp)
	raw, err := readWire(r, bp, 4*8)
	if err != nil {
		return nil, err
	}
	var hdr [4]uint64
	getWords(hdr[:], raw)
	if hdr[0] != magicLWE {
		return nil, fmt.Errorf("rlwe: bad LWE ciphertext magic %x", hdr[0])
	}
	n := int(hdr[1])
	if n < 1 || n > 1<<20 {
		return nil, fmt.Errorf("rlwe: unreasonable LWE dimension %d", n)
	}
	ct := &LWECiphertext{A: make([]uint64, n), Q: hdr[2], B: hdr[3]}
	raw, err = readWire(r, bp, 8*n)
	if err != nil {
		return nil, err
	}
	getWords(ct.A, raw)
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
