package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"heap/internal/obs"
	"heap/internal/rlwe"
	"heap/internal/tfhe"
)

// Chunked resumable blind-rotate key streaming. The BRK is by far the
// largest object the cluster moves (≈ 2.9 GB for the binary key of the paper
// set as run, n_t = 500; §III-C models 1.76 GB), and ARK/BTS both observe
// that evaluation-key movement bounds bootstrapping systems — so a key-cold
// node must not restart a multi-GB transfer because its link blipped at 90%.
// The upload is cut into CRC-framed chunks with stop-and-wait acks. The
// receiver's state outlives the connection (a KeyReceiver lives in the
// serving registry, one per tenant: a cluster node's is its primary's), a
// reconnecting sender's offer is answered with the contiguous chunks already
// held, and the upload resumes from exactly there. The key is parsed once, at
// key-done: a key-cold node gets no work until its whole key is in, as in §V,
// where every secondary rotates with the complete key.

// KeyReceiver is the receiving end of the key stream (offer → resume, chunk
// → ack, done → done), held per tenant by internal/serve's registry. It
// sizes its buffer from its own parameters, never from the wire, so a lying
// offer cannot force an oversized allocation.
type KeyReceiver struct {
	params *rlwe.Parameters
	dim    int  // LWE dimension the key must cover
	binary bool // key kind the receiver's configuration wants

	mu    sync.Mutex
	offer KeyOffer
	buf   []byte // the partial blob; nil until an offer arrives, and after done
	have  uint32 // contiguous chunks held
}

// NewKeyReceiver returns a receiver for keys of the given LWE dimension and
// kind under params.
func NewKeyReceiver(params *rlwe.Parameters, dim int, binary bool) *KeyReceiver {
	return &KeyReceiver{params: params, dim: dim, binary: binary}
}

// Receive answers one key-stream frame: an offer with the resume point, a
// chunk with its ack, and done with its echo and the parsed key. Newly
// stored chunks are counted on rec.
func (kr *KeyReceiver) Receive(f *Frame, rec obs.Recorder) (*Frame, *tfhe.BlindRotateKey, error) {
	switch f.Kind {
	case FrameKeyOffer:
		o, err := decodeKeyOffer(f.Payload)
		if err != nil {
			return nil, nil, err
		}
		have, err := kr.Offer(o)
		if err != nil {
			return nil, nil, err
		}
		return &Frame{Kind: FrameKeyResume, Payload: encodeKeyResume(have, o.BlobCRC)}, nil, nil
	case FrameKeyChunk:
		have, crc, err := kr.Chunk(f.Seq, f.Payload, rec)
		if err != nil {
			return nil, nil, err
		}
		return &Frame{Kind: FrameKeyAck, Payload: encodeKeyResume(have, crc)}, nil, nil
	case FrameKeyDone:
		if len(f.Payload) != 4 {
			return nil, nil, fmt.Errorf("cluster: key done payload is %d bytes, want 4", len(f.Payload))
		}
		key, err := kr.Done(binary.LittleEndian.Uint32(f.Payload))
		if err != nil {
			return nil, nil, err
		}
		return &Frame{Kind: FrameKeyDone, Payload: f.Payload}, key, nil
	}
	return nil, nil, fmt.Errorf("cluster: frame kind %#x is not a key-stream frame", f.Kind)
}

// Offer adopts o, keeping what is held when o is the offer already in
// progress, and returns the contiguous chunks held: the sender's resume
// point.
func (kr *KeyReceiver) Offer(o KeyOffer) (uint32, error) {
	if want := tfhe.BRKBlobBytes(kr.params, kr.dim, kr.binary); o.TotalSize != uint64(want) {
		return 0, fmt.Errorf("cluster: key offer of %d bytes, want %d for this parameter set", o.TotalSize, want)
	}
	kr.mu.Lock()
	defer kr.mu.Unlock()
	if kr.buf == nil || kr.offer != o {
		kr.offer, kr.buf, kr.have = o, make([]byte, o.TotalSize), 0
	}
	return kr.have, nil
}

// Chunk stores chunk idx and returns the new contiguous count and the
// offer's CRC, the ack's payload. Stop-and-wait: idx must be the next chunk;
// an already-held one is re-acked without being stored or counted, so the
// unique-chunk counters stay exact across any number of kill/resume cycles.
func (kr *KeyReceiver) Chunk(idx uint32, data []byte, rec obs.Recorder) (uint32, uint32, error) {
	kr.mu.Lock()
	defer kr.mu.Unlock()
	switch {
	case kr.buf == nil:
		return 0, 0, errors.New("cluster: key chunk before offer")
	case idx > kr.have || idx >= kr.offer.ChunkCount:
		return 0, 0, fmt.Errorf("cluster: key chunk %d, want %d of %d", idx, kr.have, kr.offer.ChunkCount)
	case idx == kr.have:
		off := uint64(idx) * uint64(kr.offer.ChunkSize)
		if want := min(kr.offer.TotalSize-off, uint64(kr.offer.ChunkSize)); uint64(len(data)) != want {
			return 0, 0, fmt.Errorf("cluster: key chunk %d is %d bytes, want %d", idx, len(data), want)
		}
		copy(kr.buf[off:], data)
		kr.have++
		rec.Add(obs.CounterKeyChunks, 1)
		rec.Add(obs.CounterKeyChunkBytes, uint64(len(data)))
	}
	return kr.have, kr.offer.BlobCRC, nil
}

// Done checks the reassembled blob against the offer and blobCRC, parses it
// and checks its dimension. Whatever the outcome, the blob is detached
// first: a chunk racing the done cannot touch the bytes being parsed — nor,
// afterwards, the key, which is decoded in place and lives in the blob's
// memory — and the next upload starts from a fresh offer, the only sound
// resume point once the bytes have been judged.
func (kr *KeyReceiver) Done(blobCRC uint32) (*tfhe.BlindRotateKey, error) {
	kr.mu.Lock()
	buf, o, have := kr.buf, kr.offer, kr.have
	kr.buf, kr.have = nil, 0
	kr.mu.Unlock()
	switch {
	case buf == nil:
		return nil, errors.New("cluster: key done before offer")
	case have != o.ChunkCount:
		return nil, fmt.Errorf("cluster: key done with %d of %d chunks held", have, o.ChunkCount)
	case blobCRC != o.BlobCRC:
		return nil, fmt.Errorf("cluster: key done CRC %#x, offer %#x", blobCRC, o.BlobCRC)
	}
	if sum := crc32.ChecksumIEEE(buf); sum != o.BlobCRC {
		return nil, fmt.Errorf("cluster: reassembled key CRC %#x does not match offer %#x", sum, o.BlobCRC)
	}
	key, err := tfhe.DecodeBlindRotateKey(buf, kr.params, kr.binary)
	if err != nil {
		return nil, fmt.Errorf("cluster: streamed key: %w", err)
	}
	if key.NumKeys() != kr.dim {
		return nil, fmt.Errorf("cluster: streamed key covers %d indices, want %d", key.NumKeys(), kr.dim)
	}
	return key, nil
}

// keyBlobBytes lazily serializes the primary's blind-rotate key for
// streaming. Built once per run and shared by every key-cold node.
func (rs *runState) keyBlobBytes(p *Primary) ([]byte, uint32, error) {
	rs.keyOnce.Do(func() {
		brk := p.Boot.BlindRotateKey()
		if brk == nil {
			rs.keyErr = fmt.Errorf("cluster: primary holds no blind-rotate key to stream")
			return
		}
		rs.keyBlob, rs.keyCRC, rs.keyErr = KeyBlob(p.Boot.Params.Parameters, brk)
	})
	return rs.keyBlob, rs.keyCRC, rs.keyErr
}

// KeyBlob serializes key into one buffer, sized once from
// tfhe.BRKBlobBytes, and returns it with its CRC: the blob StreamKey sends.
func KeyBlob(p *rlwe.Parameters, key *tfhe.BlindRotateKey) ([]byte, uint32, error) {
	blob, err := key.AppendBinary(make([]byte, 0, tfhe.BRKBlobBytes(p, key.NumKeys(), key.Binary)))
	if err != nil {
		return nil, 0, err
	}
	return blob, crc32.ChecksumIEEE(blob), nil
}

// StreamKey pushes a serialized blind-rotate key blob over conn with the
// chunked stop-and-wait protocol above (offer → resume → chunks with
// per-chunk acks → done), resuming from whatever the receiver already holds.
// chunkBytes ≤ 0 takes the primary's 256 KiB chunks; timeout ≤ 0 leaves each
// round trip unbounded. This is the client-side path a tenant uses to install
// its key in a serving registry; it is byte-identical to the
// primary→secondary warm-up stream.
func StreamKey(conn Conn, blob []byte, blobCRC uint32, chunkBytes int, timeout time.Duration, rec obs.Recorder) error {
	if chunkBytes <= 0 {
		chunkBytes = keyChunkBytes
	}
	var high uint32
	return sendKey(conn, blob, blobCRC, chunkBytes, timeout, obs.OrNop(rec), &high)
}

// sendKey streams the key blob to a cold node, resuming from whatever the
// receiver already holds. high is one past the highest chunk ever sent to the
// node; it advances when a chunk is first sent, so a chunk sent again after a
// cut (with stop-and-wait, the one in flight when the link died) is counted
// in CounterKeyChunkResent. Each round trip is bounded by timeout (≤ 0:
// unbounded).
func sendKey(conn Conn, blob []byte, blobCRC uint32, chunk int, timeout time.Duration, rec obs.Recorder, high *uint32) error {
	count := (len(blob) + chunk - 1) / chunk
	offer := KeyOffer{
		TotalSize:  uint64(len(blob)),
		ChunkSize:  uint32(chunk),
		ChunkCount: uint32(count),
		BlobCRC:    blobCRC,
	}

	roundTrip := func(send *Frame, wantKind uint32) (*Frame, error) {
		disarm := armTimeout(conn, timeout)
		defer disarm()
		if err := WriteFrame(countWriter{conn, rec}, send); err != nil {
			return nil, fmt.Errorf("cluster: key upload send: %w", err)
		}
		f, err := readFrame(conn, MaxErrorPayload, rec)
		if err != nil {
			return nil, fmt.Errorf("cluster: key upload reply: %w", err)
		}
		if f.Kind == FrameError {
			return nil, fmt.Errorf("cluster: key upload refused: %s", f.Payload)
		}
		if f.Kind != wantKind {
			return nil, fmt.Errorf("cluster: key upload expected frame kind %#x, got %#x", wantKind, f.Kind)
		}
		return f, nil
	}

	f, err := roundTrip(&Frame{Kind: FrameKeyOffer, Payload: offer.encode()}, FrameKeyResume)
	if err != nil {
		return err
	}
	have, rcrc, err := decodeKeyResume(f.Payload)
	if err != nil {
		return err
	}
	if rcrc != blobCRC || int(have) > count {
		return fmt.Errorf("cluster: key resume for CRC %#x at chunk %d/%d is inconsistent", rcrc, have, count)
	}

	for i := int(have); i < count; i++ {
		lo := i * chunk
		hi := lo + chunk
		if hi > len(blob) {
			hi = len(blob)
		}
		payload := blob[lo:hi]
		if uint32(i) < *high {
			rec.Add(obs.CounterKeyChunkResent, uint64(len(payload)))
		} else {
			*high = uint32(i) + 1
		}
		f, err := roundTrip(&Frame{Kind: FrameKeyChunk, Seq: uint32(i), Payload: payload}, FrameKeyAck)
		if err != nil {
			return err
		}
		acked, acrc, err := decodeKeyResume(f.Payload)
		if err != nil {
			return err
		}
		if acked != uint32(i)+1 || acrc != blobCRC {
			return fmt.Errorf("cluster: key chunk %d acked at %d for CRC %#x", i, acked, acrc)
		}
	}

	done := binary.LittleEndian.AppendUint32(nil, blobCRC)
	if _, err := roundTrip(&Frame{Kind: FrameKeyDone, Payload: done}, FrameKeyDone); err != nil {
		return err
	}
	return nil
}
