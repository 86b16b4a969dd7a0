package cluster

import (
	"io"
	"net"
	"time"

	"heap/internal/core"
	"heap/internal/obs"
	"heap/internal/rlwe"
)

// This file is the exported bridge over the v4 wire protocol for the serving
// layer (internal/serve). The protocol itself — frame layout, payload
// codecs, bounds — lives unexported in frame.go/keystream.go and is shared
// byte-for-byte by the cluster scheduler and the bootstrap service; the
// aliases and wrappers here expose exactly the surface a protocol peer
// outside this package needs, so there is one frame format and one set of
// hardened decoders in the tree.

// Frame is one protocol message (alias of the internal frame type).
type Frame = frame

// Hello is the connection-setup handshake payload.
type Hello = hello

// KeyOffer describes a blind-rotate key blob about to be streamed.
type KeyOffer = keyOffer

// Exported frame kinds.
const (
	FrameHello     = frameHello
	FrameBatch     = frameBatch
	FrameAcc       = frameAcc
	FrameBatchEnd  = frameBatchEnd
	FrameError     = frameError
	FrameShutdown  = frameShutdown
	FrameProbe     = frameProbe
	FrameProbeAck  = frameProbeAck
	FrameJoin      = frameJoin
	FrameJoinAck   = frameJoinAck
	FrameLeave     = frameLeave
	FrameKeyOffer  = frameKeyOffer
	FrameKeyResume = frameKeyResume
	FrameKeyChunk  = frameKeyChunk
	FrameKeyAck    = frameKeyAck
	FrameKeyDone   = frameKeyDone

	// FrameRejected is a non-fatal, per-job admission rejection
	// (server → client): the connection stays usable, Shard echoes the
	// rejected job id, and the payload is a bounded reason string
	// (EncodeReason/DecodeReason). Introduced by the serving layer; the
	// cluster scheduler never emits it.
	FrameRejected = uint32(0xB007_0030)
)

// Exported payload bounds.
const (
	HelloPayloadSize   = helloPayloadSize
	JoinPayloadBound   = joinPayloadBound
	MaxErrorPayload    = maxErrorPayload
	MaxKeyChunkPayload = maxKeyChunkPayload
	KeyOfferSize       = keyOfferPayloadSize
)

// WriteFrame serializes f as a single Write (frames from concurrent writers
// sharing a mutex are never interleaved).
func WriteFrame(w io.Writer, f *Frame) error { return writeFrame(w, f) }

// ReadFrame reads and validates one frame, bounding the payload allocation.
func ReadFrame(r io.Reader, maxPayload int) (*Frame, error) { return readFrame(r, maxPayload) }

// WireSize is the on-the-wire byte count of a frame with the given payload
// length.
func WireSize(payloadLen int) uint64 { return wireSize(payloadLen) }

// HelloFor builds the handshake payload describing bt's parameter set.
func HelloFor(bt *core.Bootstrapper) Hello { return helloFor(bt) }

// LWEDim is the dimension of the LWE ciphertexts bt's Prepare emits.
func LWEDim(bt *core.Bootstrapper) int { return lweDim(bt) }

// EncodeHello serializes a hello payload.
func EncodeHello(h Hello) []byte { return h.encode() }

// DecodeHello parses a hello payload.
func DecodeHello(payload []byte) (Hello, error) { return decodeHello(payload) }

// CheckHello verifies a peer hello against the local one (flags are status,
// not compatibility, and are not compared).
func CheckHello(local, peer Hello) error { return local.check(peer) }

// EncodeJoin serializes a join request: hello + length-prefixed peer name.
func EncodeJoin(h Hello, name string) []byte { return encodeJoin(h, name) }

// DecodeJoin parses and bounds a join payload.
func DecodeJoin(payload []byte) (Hello, string, error) { return decodeJoin(payload) }

// EncodeBatch serializes count followed by (index, LWE ciphertext) pairs.
func EncodeBatch(idxs []int, lwes []*rlwe.LWECiphertext) ([]byte, error) {
	return encodeBatch(idxs, lwes)
}

// DecodeBatch parses and fully validates a batch payload.
func DecodeBatch(payload []byte, maxBatch, dim int, q uint64) ([]int, []*rlwe.LWECiphertext, error) {
	return decodeBatch(payload, maxBatch, dim, q)
}

// EncodeAcc serializes (index, accumulator ciphertext).
func EncodeAcc(idx int, acc *rlwe.Ciphertext) ([]byte, error) { return encodeAcc(idx, acc) }

// DecodeAcc parses an accumulator payload.
func DecodeAcc(payload []byte, p *rlwe.Parameters, maxIndex int) (int, *rlwe.Ciphertext, error) {
	return decodeAcc(payload, p, maxIndex)
}

// BatchPayloadBound is the largest batch payload a server accepts.
func BatchPayloadBound(maxBatch, dim int) int { return batchPayloadBound(maxBatch, dim) }

// AccPayloadBound is the largest accumulator payload a client accepts.
func AccPayloadBound(p *rlwe.Parameters) int { return accPayloadBound(p) }

// EncodeReason serializes a bounded reason string (leave frames, rejection
// frames).
func EncodeReason(reason string) []byte { return encodeLeave(reason) }

// DecodeReason parses a bounded reason payload.
func DecodeReason(payload []byte) (string, error) { return decodeLeave(payload) }

// EncodeKeyOffer serializes a key-stream offer.
func EncodeKeyOffer(o KeyOffer) []byte { return o.encode() }

// DecodeKeyOffer parses and cross-validates a key-stream offer.
func DecodeKeyOffer(payload []byte) (KeyOffer, error) { return decodeKeyOffer(payload) }

// EncodeKeyResume serializes a resume/ack payload (contiguous chunks held +
// blob CRC).
func EncodeKeyResume(have, blobCRC uint32) []byte { return encodeKeyResume(have, blobCRC) }

// DecodeKeyResume parses a resume/ack payload.
func DecodeKeyResume(payload []byte) (have, blobCRC uint32, err error) {
	return decodeKeyResume(payload)
}

// StreamKey pushes a serialized blind-rotate key blob over conn with the
// chunked stop-and-wait protocol from keystream.go (offer → resume → chunks
// with per-chunk acks → done), resuming from whatever the receiver already
// holds. chunkBytes ≤ 0 takes the scheduler default; timeout ≤ 0 disables
// the per-round-trip watchdog. This is
// the client-side path a tenant uses to install its key in a serving
// registry; it is byte-identical to the primary→secondary warm-up stream.
func StreamKey(conn io.ReadWriter, blob []byte, blobCRC uint32, chunkBytes int, timeout time.Duration, rec obs.Recorder) error {
	opts := DefaultOptions()
	if chunkBytes > 0 {
		opts.KeyChunkBytes = chunkBytes
	}
	opts.BatchTimeout = timeout
	var high uint32
	return sendKey(conn, blob, blobCRC, opts.withDefaults(), obs.OrNop(rec), &high, nil)
}

// ListenerFrom adapts a net.Listener to the cluster Listener interface, the
// accept surface AcceptJoins and the serving layer consume (PipeListener is
// the in-process equivalent).
func ListenerFrom(l net.Listener) Listener { return netListener{l} }

type netListener struct{ l net.Listener }

func (n netListener) Accept() (io.ReadWriter, error) { return n.l.Accept() }
