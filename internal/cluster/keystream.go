package cluster

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"

	"heap/internal/obs"
	"heap/internal/rlwe"
	"heap/internal/tfhe"
)

// Chunked resumable blind-rotate key streaming. The BRK is by far the
// largest object the cluster moves (1.76 GB at paper parameters, §III-C),
// and ARK/BTS both observe that evaluation-key movement bounds
// bootstrapping systems — so a cold joiner must not restart a multi-GB
// transfer because its link blipped at 90%. The upload is cut into
// CRC-framed chunks with stop-and-wait acks: the receiver's stash survives
// the connection (it lives on the Secondary, not the conn), a rejoining
// node reports the contiguous chunks it already holds, and the sender
// resumes from exactly there. Because the serialized key is a fixed-size
// header plus fixed-size per-index records (tfhe/serial.go), the receiver
// parses complete records incrementally and can serve shards whose LWE
// masks only touch the warm prefix while the tail is still in flight.

// keyStash is the receiver-side state of a (possibly interrupted) key
// upload. It belongs to the Secondary and deliberately outlives any single
// connection: that persistence is the resume mechanism.
type keyStash struct {
	mu    sync.Mutex
	offer KeyOffer
	buf   []byte // the partial blob; nil until an offer arrives
	have  uint32 // contiguous chunks held

	headerParsed bool
	numKeys      int
	key          *tfhe.BlindRotateKey // full-length, records [0, warm) filled
	warm         int                  // complete key records parsed from buf
	installed    bool                 // key handed to the bootstrapper after keyDone
}

// reset discards any partial state and adopts a new offer.
func (st *keyStash) reset(o KeyOffer) {
	st.offer = o
	st.buf = make([]byte, o.TotalSize)
	st.have = 0
	st.headerParsed = false
	st.numKeys = 0
	st.key = nil
	st.warm = 0
	st.installed = false
}

// contiguousBytes is how many prefix bytes of the blob the stash holds.
func (st *keyStash) contiguousBytes() int {
	b := uint64(st.have) * uint64(st.offer.ChunkSize)
	if b > st.offer.TotalSize {
		b = st.offer.TotalSize
	}
	return int(b)
}

// advance parses the header and any newly-completed fixed-size key records
// out of the contiguous prefix. Returns the number of warm records. The key
// kind, like the blob size, comes from the node's own configuration; the
// header's flag must agree with it.
func (st *keyStash) advance(s *Secondary) (int, error) {
	p := s.Boot.Params.Parameters
	bin := s.Boot.BinaryKey()
	avail := st.contiguousBytes()
	hdr := tfhe.BRKBlobBytes(p, 0, bin)
	if !st.headerParsed {
		if avail < hdr {
			return 0, nil
		}
		n, hdrBin, err := tfhe.ReadBRKHeader(bytes.NewReader(st.buf))
		if err != nil {
			return 0, err
		}
		if n != LWEDim(s.Boot) {
			return 0, fmt.Errorf("cluster: streamed key covers %d indices, want %d", n, LWEDim(s.Boot))
		}
		if hdrBin != bin {
			return 0, fmt.Errorf("cluster: streamed key has binary=%v, this node's configuration wants binary=%v", hdrBin, bin)
		}
		st.headerParsed = true
		st.numKeys = n
		st.key = &tfhe.BlindRotateKey{Plus: make([]*rlwe.RGSWCiphertext, n), Binary: bin}
		if !bin {
			st.key.Minus = make([]*rlwe.RGSWCiphertext, n)
		}
	}
	recSize := tfhe.BRKRecordBytes(p, bin)
	for st.warm < st.numKeys && hdr+(st.warm+1)*recSize <= avail {
		off := hdr + st.warm*recSize
		plus, minus, err := tfhe.ReadBRKRecord(bytes.NewReader(st.buf[off:off+recSize]), p, bin)
		if err != nil {
			return st.warm, fmt.Errorf("cluster: streamed key record %d: %w", st.warm, err)
		}
		st.key.Plus[st.warm] = plus
		if !bin {
			st.key.Minus[st.warm] = minus
		}
		st.warm++
	}
	return st.warm, nil
}

// warmRecords is the number of key indices the secondary can currently
// rotate with: the full dimension once a locally-generated or fully
// installed key is present, else the streamed warm prefix.
func (s *Secondary) warmRecords() int {
	s.stash.mu.Lock()
	defer s.stash.mu.Unlock()
	if s.stash.buf != nil && !s.stash.installed {
		return s.stash.warm
	}
	if s.Boot.HasBlindRotateKey() {
		return LWEDim(s.Boot)
	}
	return 0
}

// fullyWarm reports whether the node holds its complete blind-rotate key
// (the hello key-warm flag). A node mid-upload is not warm even though a
// partial key may already be installed for prefix serving.
func (s *Secondary) fullyWarm() bool {
	s.stash.mu.Lock()
	defer s.stash.mu.Unlock()
	if s.stash.buf != nil && !s.stash.installed {
		return false
	}
	return s.Boot.HasBlindRotateKey()
}

// handleKeyOffer processes a key-streaming offer, answering with the resume
// point (0 for a fresh upload, the stashed contiguous chunk count after an
// interrupted one).
func (s *Secondary) handleKeyOffer(conn io.ReadWriter, f *Frame, rec obs.Recorder) error {
	o, err := DecodeKeyOffer(f.Payload)
	if err != nil {
		return err
	}
	// The receiver sizes its buffer from its own parameters, never from the
	// wire: a lying offer cannot force an oversized allocation.
	expect := tfhe.BRKBlobBytes(s.Boot.Params.Parameters, LWEDim(s.Boot), s.Boot.BinaryKey())
	if o.TotalSize != uint64(expect) {
		return fmt.Errorf("cluster: key offer of %d bytes, want %d for this parameter set", o.TotalSize, expect)
	}
	s.stash.mu.Lock()
	if s.stash.buf == nil || s.stash.offer != o {
		s.stash.reset(o)
	}
	have := s.stash.have
	s.stash.mu.Unlock()
	payload := EncodeKeyResume(have, o.BlobCRC)
	if err := WriteFrame(conn, &Frame{Kind: FrameKeyResume, Payload: payload}); err != nil {
		return err
	}
	rec.Add(obs.CounterBytesFramed, WireSize(len(payload)))
	return nil
}

// handleKeyChunk stores one chunk (stop-and-wait: its index must be exactly
// the next expected one; an already-held index is re-acked without being
// stored or counted, so the unique-chunk counters are exact across any
// number of kill/resume cycles) and acks the new contiguous count.
func (s *Secondary) handleKeyChunk(conn io.ReadWriter, f *Frame, rec obs.Recorder) error {
	s.stash.mu.Lock()
	st := &s.stash
	if st.buf == nil {
		s.stash.mu.Unlock()
		return fmt.Errorf("cluster: key chunk before offer")
	}
	idx := f.Seq
	switch {
	case idx < st.have:
		// Duplicate after a resume race; already stored.
	case idx > st.have:
		s.stash.mu.Unlock()
		return fmt.Errorf("cluster: key chunk %d, want %d", idx, st.have)
	default:
		off := uint64(idx) * uint64(st.offer.ChunkSize)
		want := st.offer.TotalSize - off
		if want > uint64(st.offer.ChunkSize) {
			want = uint64(st.offer.ChunkSize)
		}
		if uint64(len(f.Payload)) != want {
			s.stash.mu.Unlock()
			return fmt.Errorf("cluster: key chunk %d is %d bytes, want %d", idx, len(f.Payload), want)
		}
		copy(st.buf[off:], f.Payload)
		st.have++
		rec.Add(obs.CounterKeyChunks, 1)
		rec.Add(obs.CounterKeyChunkBytes, uint64(len(f.Payload)))
		if _, err := st.advance(s); err != nil {
			s.stash.mu.Unlock()
			return err
		}
		// Prefix serving: once the header and at least one record are in,
		// install the partial key so batches bounded by the warm prefix can
		// rotate while the tail streams.
		if st.headerParsed && !st.installed && s.Boot.BlindRotateKey() != st.key {
			if err := s.Boot.SetBlindRotateKey(st.key); err != nil {
				s.stash.mu.Unlock()
				return err
			}
		}
	}
	have := st.have
	blobCRC := st.offer.BlobCRC
	s.stash.mu.Unlock()
	payload := EncodeKeyResume(have, blobCRC)
	if err := WriteFrame(conn, &Frame{Kind: FrameKeyAck, Payload: payload}); err != nil {
		return err
	}
	rec.Add(obs.CounterBytesFramed, WireSize(len(payload)))
	return nil
}

// handleKeyDone verifies the complete blob against the offered CRC,
// installs the key, and echoes the done frame as the sender's confirmation.
func (s *Secondary) handleKeyDone(conn io.ReadWriter, f *Frame, rec obs.Recorder) error {
	if len(f.Payload) != 4 {
		return fmt.Errorf("cluster: key done payload is %d bytes, want 4", len(f.Payload))
	}
	s.stash.mu.Lock()
	st := &s.stash
	if st.buf == nil || st.have != st.offer.ChunkCount {
		have := st.have
		s.stash.mu.Unlock()
		return fmt.Errorf("cluster: key done with %d chunks held", have)
	}
	if got := u32(f.Payload); got != st.offer.BlobCRC {
		s.stash.mu.Unlock()
		return fmt.Errorf("cluster: key done CRC %#x, want %#x", got, st.offer.BlobCRC)
	}
	if sum := crc32.ChecksumIEEE(st.buf); sum != st.offer.BlobCRC {
		st.reset(st.offer)
		s.stash.mu.Unlock()
		return fmt.Errorf("cluster: reassembled key CRC %#x does not match offer %#x", sum, st.offer.BlobCRC)
	}
	if _, err := st.advance(s); err != nil {
		s.stash.mu.Unlock()
		return err
	}
	if st.warm != st.numKeys {
		warm, want := st.warm, st.numKeys
		s.stash.mu.Unlock()
		return fmt.Errorf("cluster: key done with %d of %d records parsed", warm, want)
	}
	key := st.key
	st.installed = true
	st.buf = nil // the parsed key holds the material; drop the raw blob
	s.stash.mu.Unlock()
	if err := s.Boot.SetBlindRotateKey(key); err != nil {
		return err
	}
	if err := WriteFrame(conn, &Frame{Kind: FrameKeyDone, Payload: f.Payload}); err != nil {
		return err
	}
	rec.Add(obs.CounterBytesFramed, WireSize(len(f.Payload)))
	return nil
}

// keyBlob lazily serializes the primary's blind-rotate key for streaming.
// Built once per run and shared by every cold joiner.
func (rs *runState) keyBlobBytes(p *Primary) ([]byte, uint32, error) {
	rs.keyOnce.Do(func() {
		brk := p.Boot.BlindRotateKey()
		if brk == nil {
			rs.keyErr = fmt.Errorf("cluster: primary holds no blind-rotate key to stream")
			return
		}
		var buf bytes.Buffer
		if _, err := brk.WriteTo(&buf); err != nil {
			rs.keyErr = err
			return
		}
		rs.keyBlob = buf.Bytes()
		rs.keyCRC = crc32.ChecksumIEEE(rs.keyBlob)
	})
	return rs.keyBlob, rs.keyCRC, rs.keyErr
}

// StreamKey pushes a serialized blind-rotate key blob over conn with the
// chunked stop-and-wait protocol above (offer → resume → chunks with
// per-chunk acks → done), resuming from whatever the receiver already holds.
// chunkBytes ≤ 0 takes the scheduler default; timeout ≤ 0 disables the
// per-round-trip watchdog. This is the client-side path a tenant uses to
// install its key in a serving registry; it is byte-identical to the
// primary→secondary warm-up stream.
func StreamKey(conn io.ReadWriter, blob []byte, blobCRC uint32, chunkBytes int, timeout time.Duration, rec obs.Recorder) error {
	opts := DefaultOptions()
	if chunkBytes > 0 {
		opts.KeyChunkBytes = chunkBytes
	}
	opts.BatchTimeout = timeout
	var high uint32
	return sendKey(conn, blob, blobCRC, opts.withDefaults(), obs.OrNop(rec), &high, nil)
}

// sendKey streams the key blob to a cold node, resuming from whatever the
// receiver already holds. high persists the per-node high-water mark of
// pushed chunks across reconnects, so re-sent overlap (at most the one
// unacked chunk per kill, with stop-and-wait) is counted exactly in
// CounterKeyChunkResent. onAck, when non-nil, is called after every acked
// chunk with the receiver's contiguous chunk count — the hook the scheduler
// uses to dispatch prefix-bounded work mid-upload.
func sendKey(conn io.ReadWriter, blob []byte, blobCRC uint32, opts Options, rec obs.Recorder, high *uint32, onAck func(warmRecords int) error) error {
	chunk := opts.KeyChunkBytes
	count := (len(blob) + chunk - 1) / chunk
	offer := KeyOffer{
		TotalSize:  uint64(len(blob)),
		ChunkSize:  uint32(chunk),
		ChunkCount: uint32(count),
		BlobCRC:    blobCRC,
	}

	roundTrip := func(send *Frame, wantKind uint32) (*Frame, error) {
		disarm := armTimeout(conn, opts.BatchTimeout)
		defer disarm()
		if err := WriteFrame(conn, send); err != nil {
			return nil, fmt.Errorf("cluster: key upload send: %w", err)
		}
		rec.Add(obs.CounterBytesFramed, WireSize(len(send.Payload)))
		f, err := ReadFrame(conn, MaxErrorPayload)
		if err != nil {
			return nil, fmt.Errorf("cluster: key upload reply: %w", err)
		}
		rec.Add(obs.CounterBytesFramed, WireSize(len(f.Payload)))
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
		}
		f, err := roundTrip(&Frame{Kind: FrameKeyChunk, Seq: uint32(i), Payload: payload}, FrameKeyAck)
		if err != nil {
			return err
		}
		if uint32(i) >= *high {
			*high = uint32(i) + 1
		}
		acked, _, err := decodeKeyResume(f.Payload)
		if err != nil {
			return err
		}
		if acked != uint32(i)+1 {
			return fmt.Errorf("cluster: key chunk %d acked at %d", i, acked)
		}
		if onAck != nil {
			if err := onAck(int(acked)); err != nil {
				return err
			}
		}
	}

	done := make([]byte, 4)
	putU32(done, blobCRC)
	if _, err := roundTrip(&Frame{Kind: FrameKeyDone, Payload: done}, FrameKeyDone); err != nil {
		return err
	}
	return nil
}
