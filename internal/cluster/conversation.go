package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"heap/internal/obs"
	"heap/internal/rlwe"
)

// The batch conversation every link carries (§V, Figure 4), one function per
// step. Whichever end dials sends the join (Join) and the other end acks it
// (AcceptJoin). The dispatching end then sends batches of LWE ciphertexts
// (SendBatch) and reads each batch's accumulators back (ReadAccs); the
// serving end answers one FrameAcc per index and a batch end (WriteBatchEnd),
// or an error frame (SendError). The primary, internal/serve's Server (heapd
// and every cluster node) and its client all speak through these functions.

// PrimaryTenant is the name a primary joins a node under: the one tenant of
// a cluster node, whose key the node serves.
const PrimaryTenant = "primary"

// Join is the dialing end of the handshake: it sends local's hello and name
// in a FrameJoin, checks the hello of the acceptor's FrameJoinAck against
// local and returns it; its flags say whether the acceptor holds the key of
// tenant name (HelloFlagKeyWarm). Both frames are counted on rec.
func Join(conn io.ReadWriter, local Hello, name string, rec obs.Recorder) (Hello, error) {
	if err := WriteFrame(countWriter{conn, rec}, &Frame{Kind: FrameJoin, Payload: EncodeJoin(local, name)}); err != nil {
		return Hello{}, fmt.Errorf("cluster: join send: %w", err)
	}
	f, err := readFrame(conn, MaxErrorPayload, rec)
	if err != nil {
		return Hello{}, fmt.Errorf("cluster: join reply: %w", err)
	}
	switch f.Kind {
	case FrameJoinAck:
	case FrameError:
		return Hello{}, fmt.Errorf("cluster: join refused: %s", f.Payload)
	default:
		return Hello{}, fmt.Errorf("cluster: expected join ack, got frame kind %#x", f.Kind)
	}
	peer, err := DecodeHello(f.Payload)
	if err != nil {
		return Hello{}, err
	}
	return peer, CheckHello(local, peer)
}

// AcceptJoin is the accepting end of the handshake: it reads a FrameJoin,
// checks its hello against local and its name for being non-empty, and acks
// with local's hello, flagged HelloFlagKeyWarm when warm reports that the
// acceptor holds the joiner's key. It returns the joiner's name. A refusal is
// answered with an error frame and returned; a connection closed or shut down
// before its join returns io.EOF. Every frame is counted on rec.
func AcceptJoin(conn io.ReadWriter, local Hello, rec obs.Recorder, warm func(name string) bool) (string, error) {
	w := countWriter{conn, rec}
	f, err := readFrame(conn, JoinPayloadBound, rec)
	if err != nil {
		return "", err
	}
	switch f.Kind {
	case FrameJoin:
	case FrameShutdown:
		return "", io.EOF
	default:
		return "", SendError(w, fmt.Errorf("cluster: expected join, got frame kind %#x", f.Kind))
	}
	peer, name, err := DecodeJoin(f.Payload)
	if err == nil {
		err = CheckHello(local, peer)
	}
	if err == nil && name == "" {
		err = errors.New("cluster: join without a name")
	}
	if err != nil {
		return "", SendError(w, err)
	}
	if warm(name) {
		local.Flags |= HelloFlagKeyWarm
	}
	return name, WriteFrame(w, &Frame{Kind: FrameJoinAck, Payload: EncodeHello(local)})
}

// SendError reports err to the peer in an error frame (bounded, best effort)
// and returns it. Whether the connection survives is the caller's call.
func SendError(w io.Writer, err error) error {
	msg := err.Error()
	if len(msg) > MaxErrorPayload {
		msg = msg[:MaxErrorPayload]
	}
	_ = WriteFrame(w, &Frame{Kind: FrameError, Payload: []byte(msg)})
	return err
}

// SendBatch sends the ciphertexts lwes[idx] for idx in idxs as batch shard,
// counted on rec. The seq field carries budget, the time the sender gives the
// batch, in milliseconds rounded up (0 = unbounded).
func SendBatch(w io.Writer, shard uint32, idxs []int, lwes []*rlwe.LWECiphertext, budget time.Duration, rec obs.Recorder) error {
	payload, err := EncodeBatch(idxs, lwes)
	if err != nil {
		return err
	}
	var ms uint32
	if budget > 0 {
		ms = uint32((budget + time.Millisecond - 1) / time.Millisecond)
	}
	return WriteFrame(countWriter{w, rec}, &Frame{Kind: FrameBatch, Shard: shard, Seq: ms, Payload: payload})
}

// EndError is a peer ending an accumulator stream before its batch end: with
// a non-fatal job rejection (FrameRejected) or a failure (FrameError). Reason
// is the peer's text.
type EndError struct {
	Kind   uint32
	Reason string
}

func (e *EndError) Error() string {
	return fmt.Sprintf("cluster: stream ended by frame kind %#x: %s", e.Kind, e.Reason)
}

// ReadAccs reads the reply to batch shard, which asked for the indices idxs:
// one FrameAcc per index, numbered by seq from 0 in arrival order, then a
// FrameBatchEnd that counts them. Every accumulator must decode under params
// and answer an index of idxs not answered yet; got is called once for each,
// as it arrives. A rejection or error frame ends the stream with an
// *EndError. Every frame is counted on rec.
func ReadAccs(r io.Reader, shard uint32, idxs []int, params *rlwe.Parameters, rec obs.Recorder, got func(idx int, acc *rlwe.Ciphertext)) error {
	maxPayload := max(AccPayloadBound(params), MaxErrorPayload)
	want := make(map[int]bool, len(idxs))
	for _, idx := range idxs {
		want[idx] = true
	}
	for seq := uint32(0); ; {
		f, err := readFrame(r, maxPayload, rec)
		if err != nil {
			return err
		}
		// An error frame speaks for the connection, not a batch.
		if f.Kind != FrameError && f.Shard != shard {
			return fmt.Errorf("cluster: frame for shard %d while awaiting shard %d", f.Shard, shard)
		}
		switch f.Kind {
		case FrameRejected:
			reason, err := DecodeReason(f.Payload)
			if err != nil {
				reason = string(f.Payload)
			}
			return &EndError{Kind: f.Kind, Reason: reason}
		case FrameError:
			return &EndError{Kind: f.Kind, Reason: string(f.Payload)}
		case FrameAcc:
			if f.Seq != seq {
				return fmt.Errorf("cluster: partial accumulator stream: seq %d, want %d", f.Seq, seq)
			}
			seq++
			idx, acc, err := DecodeAcc(f.Payload, params, params.N())
			if err != nil {
				return err
			}
			if !want[idx] {
				return fmt.Errorf("cluster: accumulator for unrequested or repeated index %d", idx)
			}
			delete(want, idx)
			got(idx, acc)
		case FrameBatchEnd:
			if f.Seq != seq {
				return fmt.Errorf("cluster: partial accumulator stream: end at seq %d, want %d", f.Seq, seq)
			}
			if len(f.Payload) != 4 || int(binary.LittleEndian.Uint32(f.Payload)) != len(idxs) {
				return errors.New("cluster: batch-end count mismatch")
			}
			if len(want) != 0 {
				return fmt.Errorf("cluster: batch ended with %d accumulators missing", len(want))
			}
			return nil
		default:
			return fmt.Errorf("cluster: unexpected frame kind %#x in accumulator stream", f.Kind)
		}
	}
}

// WriteBatchEnd closes the reply to batch shard, whose count accumulators
// went out as seq 0 to count−1.
func WriteBatchEnd(w io.Writer, shard uint32, count int) error {
	payload := binary.LittleEndian.AppendUint32(nil, uint32(count))
	return WriteFrame(w, &Frame{Kind: FrameBatchEnd, Shard: shard, Seq: uint32(count), Payload: payload})
}

// countWriter counts every frame written through it on rec. WriteFrame
// writes a frame in one Write, so a Write's length is one frame's wire size.
type countWriter struct {
	io.Writer
	rec obs.Recorder
}

func (c countWriter) Write(p []byte) (int, error) {
	n, err := c.Writer.Write(p)
	if err == nil {
		c.rec.Add(obs.CounterBytesFramed, uint64(n))
	}
	return n, err
}

// readFrame is ReadFrame counting the frame it reads on rec.
func readFrame(r io.Reader, maxPayload int, rec obs.Recorder) (*Frame, error) {
	f, err := ReadFrame(r, maxPayload)
	if err == nil {
		rec.Add(obs.CounterBytesFramed, WireSize(len(f.Payload)))
	}
	return f, err
}
