package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"heap/internal/core"
	"heap/internal/rlwe"
)

// Wire protocol v2 — the hardened replacement for the seed's bare
// binary.Write streams. Every message is a self-delimiting frame:
//
//	magic(4) kind(4) shard(4) seq(4) payloadLen(4) payload(len) crc32(4)
//
// all little-endian, with the IEEE CRC32 computed over header+payload so a
// single flipped bit anywhere in the frame is detected before any of the
// payload is interpreted. The shard field names the batch the frame belongs
// to and seq numbers the frames within that batch's response stream, so a
// partial accumulator stream (a secondary dying mid-batch, the paper's lost
// CMAC link) is detectable by the primary: it knows exactly which LWE
// indices completed and which must be reassigned.
//
// A connection starts with the join handshake (conversation.go): whichever
// end dials sends a join (a hello — version, parameter digest, LWE dimension,
// batch bound — plus a name) and the other end acks with its own hello.
// Everything after a digest mismatch would be garbage, so mismatches fail the
// connection at setup instead of corrupting a bootstrap midway.
//
// The cluster scheduler and the bootstrap service (internal/serve) speak this
// one format byte for byte: what is exported here is the surface a protocol
// peer outside this package needs, so there is one set of hardened decoders
// in the tree.
const (
	frameMagic = uint32(0x4846_524D) // "HFRM"

	// ProtocolVersion is the cluster wire-protocol version exchanged in the
	// join handshake. Version 2 is the framed, checksummed protocol; the
	// seed's unframed protocol is retroactively version 1 and is rejected.
	// Version 3 adds elastic membership (join/leave/health-probe frames),
	// per-batch deadline budgets (carried in the batch frame's seq field,
	// which v2 required to be zero), a key-warm hello flag, and the chunked
	// resumable blind-rotate key streaming channel. Version 4 streams the
	// format-4 key blob (tfhe/serial.go), whose binary-key records carry the
	// Plus row only — a v3 peer would size and parse them as Plus+Minus pairs.
	// Version 5 retires the batch-refused reply: a key-cold node gets no
	// batch until key-done, and fails one that comes before it. Version 6
	// retires the health-probe frames (kinds 0xB0070010 and 0xB0070011): a
	// peer answers either with an error frame and drops the connection.
	// Version 7 has one handshake for every link: whichever end dials sends
	// FrameJoin and the other answers FrameJoinAck. The hello frame kind
	// (0x48454C4F) is retired, and a peer answers it with an error frame.
	// Version 8 has one way into a run, the primary dialing the node: the
	// graceful-leave frame kind (0xB0070014) is retired, answered with an
	// error frame, and the acceptor's FrameJoinAck carries HelloFlagKeyWarm
	// when it holds the joiner's key, so the primary streams the key to a
	// key-cold node it dialed before any batch.
	ProtocolVersion = uint32(8)

	frameHeaderSize  = 20
	frameTrailerSize = 4

	// MaxErrorPayload bounds remote error strings.
	MaxErrorPayload = 1 << 10
)

// WireSize is the on-the-wire byte count of a frame with the given payload
// length — header, payload, and CRC trailer. The observability byte counters
// use it so that framing overhead is accounted exactly.
func WireSize(payloadLen int) uint64 {
	return uint64(frameHeaderSize + payloadLen + frameTrailerSize)
}

// Frame kinds.
const (
	FrameBatch    = uint32(0xB007_0001) // primary → secondary: LWE batch (seq = deadline budget, ms)
	FrameAcc      = uint32(0xB007_0002) // secondary → primary: one accumulator
	FrameBatchEnd = uint32(0xB007_0003) // secondary → primary: batch complete
	FrameError    = uint32(0xB007_000E) // either way: structured failure
	FrameShutdown = uint32(0xB007_00FF)

	// The handshake (v3; every link's since v7).
	FrameJoin    = uint32(0xB007_0012) // dialer → acceptor: hello + name
	FrameJoinAck = uint32(0xB007_0013) // acceptor → dialer: hello reply (key-warm flag), join accepted

	// Chunked resumable key streaming (v3).
	FrameKeyOffer  = uint32(0xB007_0020) // primary → secondary: blob size/chunking/CRC
	FrameKeyResume = uint32(0xB007_0021) // secondary → primary: contiguous chunks already held
	FrameKeyChunk  = uint32(0xB007_0022) // primary → secondary: one chunk (seq = chunk index)
	FrameKeyAck    = uint32(0xB007_0023) // secondary → primary: contiguous chunks now held
	FrameKeyDone   = uint32(0xB007_0024) // primary → secondary: upload complete (blob CRC)

	// FrameRejected is a non-fatal, per-job admission rejection
	// (server → client): the connection stays usable, Shard echoes the
	// rejected job id, and the payload is a bounded reason string
	// (EncodeReason/DecodeReason). Introduced by the serving layer; the
	// cluster scheduler never emits it.
	FrameRejected = uint32(0xB007_0030)
)

// Frame is one protocol message.
type Frame struct {
	Kind    uint32
	Shard   uint32 // batch identifier
	Seq     uint32 // position within the batch's response stream
	Payload []byte
}

// WriteFrame serializes f as a single Write so frames are never interleaved
// on a shared writer.
func WriteFrame(w io.Writer, f *Frame) error {
	buf := make([]byte, frameHeaderSize+len(f.Payload)+frameTrailerSize)
	le := binary.LittleEndian
	le.PutUint32(buf[0:], frameMagic)
	le.PutUint32(buf[4:], f.Kind)
	le.PutUint32(buf[8:], f.Shard)
	le.PutUint32(buf[12:], f.Seq)
	le.PutUint32(buf[16:], uint32(len(f.Payload)))
	copy(buf[frameHeaderSize:], f.Payload)
	crc := crc32.ChecksumIEEE(buf[:frameHeaderSize+len(f.Payload)])
	le.PutUint32(buf[frameHeaderSize+len(f.Payload):], crc)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads and validates one frame. The payload length is checked
// against maxPayload before any allocation, so a lying peer can never force
// an unbounded make. io.EOF is returned verbatim only for a clean close at
// a frame boundary; every other failure is wrapped.
func ReadFrame(r io.Reader, maxPayload int) (*Frame, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("cluster: short frame header: %w", err)
	}
	le := binary.LittleEndian
	if m := le.Uint32(hdr[0:]); m != frameMagic {
		return nil, fmt.Errorf("cluster: bad frame magic %#x", m)
	}
	plen := int(le.Uint32(hdr[16:]))
	if plen > maxPayload {
		return nil, fmt.Errorf("cluster: frame payload %d exceeds bound %d", plen, maxPayload)
	}
	body := make([]byte, plen+frameTrailerSize)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("cluster: short frame body: %w", err)
	}
	crc := crc32.ChecksumIEEE(hdr[:])
	crc = crc32.Update(crc, crc32.IEEETable, body[:plen])
	if got := le.Uint32(body[plen:]); got != crc {
		return nil, fmt.Errorf("cluster: frame checksum mismatch (got %#x want %#x)", got, crc)
	}
	return &Frame{
		Kind:    le.Uint32(hdr[4:]),
		Shard:   le.Uint32(hdr[8:]),
		Seq:     le.Uint32(hdr[12:]),
		Payload: body[:plen:plen],
	}, nil
}

// Hello is the connection-setup handshake: both ends must agree on the
// protocol version and on the parameter set (the digest covers every Q and
// P limb), the LWE dimension the batches will carry, and the batch bound.
// Flags carries the acceptor's key status (key-warm) and is deliberately
// excluded from the compatibility check: a cold node and a warm node are
// protocol-compatible; a cold one is sent the key before any work.
type Hello struct {
	Version  uint32
	LogN     uint32
	MaxLevel uint32
	LWEDim   uint32
	MaxBatch uint32
	Digest   uint32
	Flags    uint32
}

// HelloFlagKeyWarm marks a join ack from an acceptor that holds the
// joiner's blind-rotate key; a node whose ack lacks it is sent the key
// before any work.
const HelloFlagKeyWarm = uint32(1)

const helloPayloadSize = 28

// HelloFor builds the flag-free handshake payload describing bt's parameters.
func HelloFor(bt *core.Bootstrapper) Hello {
	p := bt.Params.Parameters
	return Hello{
		Version:  ProtocolVersion,
		LogN:     uint32(p.LogN),
		MaxLevel: uint32(p.MaxLevel()),
		LWEDim:   uint32(LWEDim(bt)),
		MaxBatch: uint32(p.N()),
		Digest:   paramsDigest(p),
	}
}

// LWEDim is the dimension of the LWE ciphertexts Prepare emits: N in exact
// mode (NT = 0), n_t after the dimension-reducing key switch otherwise.
func LWEDim(bt *core.Bootstrapper) int {
	if bt.Cfg.NT == 0 {
		return bt.Params.N()
	}
	return bt.Cfg.NT
}

// paramsDigest fingerprints the modulus chains so two nodes built from
// different parameter sets refuse each other at handshake instead of
// exchanging undecryptable ciphertexts.
func paramsDigest(p *rlwe.Parameters) uint32 {
	h := crc32.NewIEEE()
	var b [8]byte
	for _, q := range p.Q {
		binary.LittleEndian.PutUint64(b[:], q)
		h.Write(b[:])
	}
	for _, q := range p.P {
		binary.LittleEndian.PutUint64(b[:], q)
		h.Write(b[:])
	}
	return h.Sum32()
}

// EncodeHello serializes a hello payload.
func EncodeHello(h Hello) []byte {
	buf := make([]byte, helloPayloadSize)
	le := binary.LittleEndian
	le.PutUint32(buf[0:], h.Version)
	le.PutUint32(buf[4:], h.LogN)
	le.PutUint32(buf[8:], h.MaxLevel)
	le.PutUint32(buf[12:], h.LWEDim)
	le.PutUint32(buf[16:], h.MaxBatch)
	le.PutUint32(buf[20:], h.Digest)
	le.PutUint32(buf[24:], h.Flags)
	return buf
}

// DecodeHello parses a hello payload.
func DecodeHello(payload []byte) (Hello, error) {
	if len(payload) != helloPayloadSize {
		return Hello{}, fmt.Errorf("cluster: hello payload is %d bytes, want %d", len(payload), helloPayloadSize)
	}
	le := binary.LittleEndian
	return Hello{
		Version:  le.Uint32(payload[0:]),
		LogN:     le.Uint32(payload[4:]),
		MaxLevel: le.Uint32(payload[8:]),
		LWEDim:   le.Uint32(payload[12:]),
		MaxBatch: le.Uint32(payload[16:]),
		Digest:   le.Uint32(payload[20:]),
		Flags:    le.Uint32(payload[24:]),
	}, nil
}

// CheckHello verifies a peer hello against the local one. Flags are status,
// not compatibility, and are not compared.
func CheckHello(local, peer Hello) error {
	if peer.Version != local.Version {
		return fmt.Errorf("cluster: protocol version mismatch: local v%d, peer v%d", local.Version, peer.Version)
	}
	if peer.LogN != local.LogN || peer.MaxLevel != local.MaxLevel || peer.LWEDim != local.LWEDim ||
		peer.MaxBatch != local.MaxBatch || peer.Digest != local.Digest {
		return fmt.Errorf("cluster: parameter mismatch: local %+v, peer %+v", local, peer)
	}
	return nil
}

// EncodeBatch serializes count followed by (index, LWE ciphertext) pairs.
func EncodeBatch(idxs []int, lwes []*rlwe.LWECiphertext) ([]byte, error) {
	var buf bytes.Buffer
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(idxs)))
	buf.Write(u32[:])
	for _, idx := range idxs {
		binary.LittleEndian.PutUint32(u32[:], uint32(idx))
		buf.Write(u32[:])
		if _, err := lwes[idx].WriteTo(&buf); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// DecodeBatch parses and fully validates a batch payload: the count is
// bounded by maxBatch (n ≤ ring degree) before anything is allocated, every
// index is bounded, and every LWE ciphertext must have exactly the
// handshaken dimension and modulus with in-range components.
func DecodeBatch(payload []byte, maxBatch, dim int, q uint64) (idxs []int, lwes []*rlwe.LWECiphertext, err error) {
	r := bytes.NewReader(payload)
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, nil, fmt.Errorf("cluster: batch header: %w", err)
	}
	if count == 0 || int(count) > maxBatch {
		return nil, nil, fmt.Errorf("cluster: batch count %d outside (0, %d]", count, maxBatch)
	}
	idxs = make([]int, count)
	lwes = make([]*rlwe.LWECiphertext, count)
	for i := range lwes {
		var idx uint32
		if err := binary.Read(r, binary.LittleEndian, &idx); err != nil {
			return nil, nil, fmt.Errorf("cluster: batch index %d: %w", i, err)
		}
		if int(idx) >= maxBatch {
			return nil, nil, fmt.Errorf("cluster: LWE index %d exceeds bound %d", idx, maxBatch)
		}
		lwe, err := rlwe.ReadLWECiphertext(r)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: batch ciphertext %d: %w", i, err)
		}
		if err := lwe.Validate(dim, q); err != nil {
			return nil, nil, fmt.Errorf("cluster: batch ciphertext %d: %w", i, err)
		}
		idxs[i] = int(idx)
		lwes[i] = lwe
	}
	if r.Len() != 0 {
		return nil, nil, fmt.Errorf("cluster: %d trailing bytes after batch", r.Len())
	}
	return idxs, lwes, nil
}

// EncodeAcc serializes (index, accumulator ciphertext).
func EncodeAcc(idx int, acc *rlwe.Ciphertext) ([]byte, error) {
	var buf bytes.Buffer
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(idx))
	buf.Write(u32[:])
	if _, err := acc.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeAcc parses an accumulator payload, rejecting wrong levels, trailing
// bytes, and out-of-range residues (via ReadCiphertext).
func DecodeAcc(payload []byte, p *rlwe.Parameters, maxIndex int) (int, *rlwe.Ciphertext, error) {
	r := bytes.NewReader(payload)
	var idx uint32
	if err := binary.Read(r, binary.LittleEndian, &idx); err != nil {
		return 0, nil, fmt.Errorf("cluster: accumulator index: %w", err)
	}
	if int(idx) >= maxIndex {
		return 0, nil, fmt.Errorf("cluster: accumulator index %d exceeds bound %d", idx, maxIndex)
	}
	acc, err := rlwe.ReadCiphertext(r, p)
	if err != nil {
		return 0, nil, fmt.Errorf("cluster: accumulator ciphertext: %w", err)
	}
	if acc.Level() != p.MaxLevel() {
		return 0, nil, fmt.Errorf("cluster: accumulator at level %d, want %d", acc.Level(), p.MaxLevel())
	}
	if r.Len() != 0 {
		return 0, nil, fmt.Errorf("cluster: %d trailing bytes after accumulator", r.Len())
	}
	return int(idx), acc, nil
}

// BatchPayloadBound is the largest batch payload a secondary accepts.
func BatchPayloadBound(maxBatch, dim int) int {
	return 4 + maxBatch*(4+rlwe.LWEWireSize(dim))
}

// AccPayloadBound is the largest accumulator payload a primary accepts.
func AccPayloadBound(p *rlwe.Parameters) int {
	return 4 + rlwe.CiphertextWireSize(p, p.MaxLevel())
}

// --- join and reason payloads ---

// maxNodeName bounds the node name a join frame may carry.
const maxNodeName = 256

// JoinPayloadBound is the largest join payload: hello + length-prefixed name.
const JoinPayloadBound = helloPayloadSize + 4 + maxNodeName

// EncodeJoin serializes a join request: the joiner's hello followed by its
// length-prefixed name (the tenant whose key the acceptor serves it with).
func EncodeJoin(h Hello, name string) []byte {
	if len(name) > maxNodeName {
		name = name[:maxNodeName]
	}
	buf := make([]byte, helloPayloadSize+4+len(name))
	copy(buf, EncodeHello(h))
	binary.LittleEndian.PutUint32(buf[helloPayloadSize:], uint32(len(name)))
	copy(buf[helloPayloadSize+4:], name)
	return buf
}

// DecodeJoin parses and bounds a join payload before anything is allocated
// from attacker-controlled lengths.
func DecodeJoin(payload []byte) (Hello, string, error) {
	if len(payload) < helloPayloadSize+4 {
		return Hello{}, "", fmt.Errorf("cluster: join payload is %d bytes, want at least %d", len(payload), helloPayloadSize+4)
	}
	h, err := DecodeHello(payload[:helloPayloadSize])
	if err != nil {
		return Hello{}, "", err
	}
	nameLen := int(binary.LittleEndian.Uint32(payload[helloPayloadSize:]))
	if nameLen > maxNodeName {
		return Hello{}, "", fmt.Errorf("cluster: join name length %d exceeds bound %d", nameLen, maxNodeName)
	}
	if len(payload) != helloPayloadSize+4+nameLen {
		return Hello{}, "", fmt.Errorf("cluster: join payload %d bytes, want %d", len(payload), helloPayloadSize+4+nameLen)
	}
	return h, string(payload[helloPayloadSize+4:]), nil
}

// EncodeReason serializes a serving-layer rejection's reason string,
// bounded like error frames.
func EncodeReason(reason string) []byte {
	if len(reason) > MaxErrorPayload {
		reason = reason[:MaxErrorPayload]
	}
	buf := make([]byte, 4+len(reason))
	binary.LittleEndian.PutUint32(buf, uint32(len(reason)))
	copy(buf[4:], reason)
	return buf
}

// DecodeReason parses a bounded reason payload.
func DecodeReason(payload []byte) (string, error) {
	if len(payload) < 4 {
		return "", fmt.Errorf("cluster: reason payload is %d bytes, want at least 4", len(payload))
	}
	n := int(binary.LittleEndian.Uint32(payload))
	if n > MaxErrorPayload {
		return "", fmt.Errorf("cluster: reason length %d exceeds bound %d", n, MaxErrorPayload)
	}
	if len(payload) != 4+n {
		return "", fmt.Errorf("cluster: reason payload %d bytes, want %d", len(payload), 4+n)
	}
	return string(payload[4:]), nil
}

// --- chunked resumable key streaming payloads (v3) ---

// KeyOffer describes a blind-rotate key blob the sender is about to stream:
// total serialized size, the fixed chunk size (the last chunk may be short),
// the chunk count, and the CRC32 of the whole blob. A receiver holding a
// partial blob from a previous connection answers with the number of
// contiguous chunks it already has — the resume point.
type KeyOffer struct {
	TotalSize  uint64
	ChunkSize  uint32
	ChunkCount uint32
	BlobCRC    uint32
}

const keyOfferPayloadSize = 20

// MaxKeyChunkPayload bounds a single key chunk (and therefore the one
// allocation a key-chunk frame can force).
const MaxKeyChunkPayload = 4 << 20

func (o KeyOffer) encode() []byte {
	buf := make([]byte, keyOfferPayloadSize)
	le := binary.LittleEndian
	le.PutUint64(buf[0:], o.TotalSize)
	le.PutUint32(buf[8:], o.ChunkSize)
	le.PutUint32(buf[12:], o.ChunkCount)
	le.PutUint32(buf[16:], o.BlobCRC)
	return buf
}

// decodeKeyOffer parses and cross-validates an offer: the chunk geometry
// must exactly tile the total size, and both are bounded before the
// receiver sizes anything from them.
func decodeKeyOffer(payload []byte) (KeyOffer, error) {
	if len(payload) != keyOfferPayloadSize {
		return KeyOffer{}, fmt.Errorf("cluster: key offer payload is %d bytes, want %d", len(payload), keyOfferPayloadSize)
	}
	le := binary.LittleEndian
	o := KeyOffer{
		TotalSize:  le.Uint64(payload[0:]),
		ChunkSize:  le.Uint32(payload[8:]),
		ChunkCount: le.Uint32(payload[12:]),
		BlobCRC:    le.Uint32(payload[16:]),
	}
	if o.TotalSize == 0 || o.TotalSize > 1<<40 {
		return KeyOffer{}, fmt.Errorf("cluster: key offer size %d out of range", o.TotalSize)
	}
	if o.ChunkSize == 0 || o.ChunkSize > MaxKeyChunkPayload {
		return KeyOffer{}, fmt.Errorf("cluster: key chunk size %d outside (0, %d]", o.ChunkSize, MaxKeyChunkPayload)
	}
	want := (o.TotalSize + uint64(o.ChunkSize) - 1) / uint64(o.ChunkSize)
	if uint64(o.ChunkCount) != want {
		return KeyOffer{}, fmt.Errorf("cluster: key offer chunk count %d, want %d for %d bytes in %d-byte chunks",
			o.ChunkCount, want, o.TotalSize, o.ChunkSize)
	}
	return o, nil
}

// encodeKeyResume serializes the receiver's resume point: the number of
// contiguous chunks it already holds and the blob CRC it holds them for.
func encodeKeyResume(have uint32, blobCRC uint32) []byte {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint32(buf[0:], have)
	binary.LittleEndian.PutUint32(buf[4:], blobCRC)
	return buf
}

// decodeKeyResume parses a resume/ack payload.
func decodeKeyResume(payload []byte) (have uint32, blobCRC uint32, err error) {
	if len(payload) != 8 {
		return 0, 0, fmt.Errorf("cluster: key resume payload is %d bytes, want 8", len(payload))
	}
	return binary.LittleEndian.Uint32(payload[0:]), binary.LittleEndian.Uint32(payload[4:]), nil
}
