package tfhe

import (
	"encoding/binary"
	"fmt"
	"io"

	"heap/internal/rlwe"
)

// Blind-rotate key serialization — the unit of the cluster's chunked key
// distribution channel. The layout is strictly fixed-size for a given
// parameter set and key kind: a 24-byte header followed by NumKeys records,
// one per LWE secret coefficient. A binary key's record is its Plus RGSW
// ciphertext alone; a ternary key's is Plus then Minus. The fixed size lets
// a receiver size its buffer from its own parameters and a resumed upload
// compute exactly which byte offset to continue from.

// The header's first word holds the magic in its low half and the format
// version in its high half. Format 3 — the blob of cluster protocol v3, which
// also carried an Enc(0) Minus row for every index of a binary key — left
// the high half zero; it is refused, never parsed as format 4.
const (
	magicBRK         = 0x4845_4252 // "HEBR"
	brkFormatVersion = 4
)

// brkHeaderSize is the serialized header: magic|version, key count, binary
// flag (all uint64, little-endian).
const brkHeaderSize = 24

// maxBRKKeys bounds the key count a header may announce.
const maxBRKKeys = 1 << 20

// BRKRecordBytes returns the exact serialized size of one key index's
// record for the parameter set and key kind: one RGSW ciphertext (two gadget
// ciphertexts with their headers) for a binary key, two for a ternary key.
func BRKRecordBytes(p *rlwe.Parameters, binary bool) int {
	rows := p.DigitsAtLevel(p.MaxLevel())
	limbs := p.MaxLevel() + len(p.P)
	rgsw := 2 * (32 + rows*2*limbs*p.N()*8)
	if binary {
		return rgsw
	}
	return 2 * rgsw
}

// BRKBlobBytes returns the full serialized size of a blind-rotate key of the
// given kind with n key indices under the parameter set.
func BRKBlobBytes(p *rlwe.Parameters, n int, binary bool) int {
	return brkHeaderSize + n*BRKRecordBytes(p, binary)
}

// AppendBinary appends the key's blob to b in one pass: the header, then one
// fixed-size record per index. A key stream encodes it straight into a
// buffer sized once from BRKBlobBytes (cluster.KeyBlob).
func (k *BlindRotateKey) AppendBinary(b []byte) ([]byte, error) {
	if err := k.CheckShape(); err != nil {
		return b, err
	}
	var bin uint64
	if k.Binary {
		bin = 1
	}
	for _, v := range []uint64{magicBRK | brkFormatVersion<<32, uint64(len(k.Plus)), bin} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	var err error
	for i := 0; err == nil && i < len(k.Plus); i++ {
		b, err = k.Plus[i].AppendBinary(b)
		if err == nil && !k.Binary {
			b, err = k.Minus[i].AppendBinary(b)
		}
	}
	return b, err
}

// decodeBRKHeader validates the blob header, returning the key count and
// binary flag.
func decodeBRKHeader(blob []byte) (numKeys int, isBinary bool, err error) {
	if len(blob) < brkHeaderSize {
		return 0, false, io.ErrUnexpectedEOF
	}
	var hdr [3]uint64
	for i := range hdr {
		hdr[i] = binary.LittleEndian.Uint64(blob[8*i:])
	}
	if uint32(hdr[0]) != magicBRK {
		return 0, false, fmt.Errorf("tfhe: bad blind-rotate key magic %x", uint32(hdr[0]))
	}
	if v := hdr[0] >> 32; v != brkFormatVersion {
		if v == 0 {
			v = 3
		}
		return 0, false, fmt.Errorf("tfhe: blind-rotate key format v%d, want v%d", v, brkFormatVersion)
	}
	if hdr[1] == 0 || hdr[1] > maxBRKKeys {
		return 0, false, fmt.Errorf("tfhe: blind-rotate key count %d out of range", hdr[1])
	}
	if hdr[2] > 1 {
		return 0, false, fmt.Errorf("tfhe: blind-rotate key binary flag %d", hdr[2])
	}
	return int(hdr[1]), hdr[2] == 1, nil
}

// DecodeBlindRotateKey decodes a complete key of the kind the caller expects
// (binary or ternary, from its own configuration) from the front of blob: a
// blob whose header flag says otherwise is refused, since its records would
// parse as the wrong rows. The rows are blob's own bytes where the host
// allows (rlwe.DecodeGadgetCiphertext), so a received key lives in the
// memory it arrived in, and blob must not change while the key is in use.
// The rows slices grow with the records actually decoded, so a header
// announcing more keys than the input holds costs no more memory than the
// records that follow it.
func DecodeBlindRotateKey(blob []byte, p *rlwe.Parameters, binary bool) (*BlindRotateKey, error) {
	n, bin, err := decodeBRKHeader(blob)
	if err != nil {
		return nil, err
	}
	if bin != binary {
		return nil, fmt.Errorf("tfhe: blob holds a key with binary=%v, want binary=%v", bin, binary)
	}
	k := &BlindRotateKey{Binary: bin}
	rest := blob[brkHeaderSize:]
	for i := 0; i < n; i++ {
		var plus, minus *rlwe.RGSWCiphertext
		plus, rest, err = rlwe.DecodeRGSWCiphertext(rest, p)
		if err == nil && !bin {
			minus, rest, err = rlwe.DecodeRGSWCiphertext(rest, p)
		}
		if err != nil {
			return nil, fmt.Errorf("tfhe: blind-rotate key record %d: %w", i, err)
		}
		k.Plus = append(k.Plus, plus)
		if !bin {
			k.Minus = append(k.Minus, minus)
		}
	}
	return k, nil
}
