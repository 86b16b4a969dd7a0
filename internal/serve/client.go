package serve

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"sync"
	"time"

	"heap/internal/cluster"
	"heap/internal/core"
	"heap/internal/obs"
	"heap/internal/rlwe"
)

// RejectedError is a non-fatal admission rejection: the connection is still
// usable; the job was refused with the given reason.
type RejectedError struct {
	Reason string
}

func (e *RejectedError) Error() string { return "serve: job rejected: " + e.Reason }

// IsRateLimited reports whether the rejection was the per-tenant token
// bucket.
func (e *RejectedError) IsRateLimited() bool {
	return strings.Contains(e.Reason, ErrRateLimited.Error())
}

// Client is one tenant connection to a bootstrap server. The tenant keeps
// its full bootstrapper: Prepare and Finish run locally; only the
// blind-rotate middle — which touches nothing but public material — is
// shipped to the service. Rotate is synchronous; run one Client per
// connection and multiple Clients for concurrency.
type Client struct {
	conn   cluster.Conn
	boot   *core.Bootstrapper
	tenant string
	rec    obs.Recorder

	mu     sync.Mutex // serializes Rotate/UploadKey on this connection
	nextID uint32
	maxAcc int
}

// NewClient joins the server over conn under the given tenant name. The
// handshake checks protocol version and parameter digest both ways.
func NewClient(conn cluster.Conn, boot *core.Bootstrapper, tenant string, rec obs.Recorder) (*Client, error) {
	rec = obs.OrNop(rec)
	local := cluster.HelloFor(boot)
	join := cluster.EncodeJoin(local, tenant)
	if err := cluster.WriteFrame(conn, &cluster.Frame{Kind: cluster.FrameJoin, Payload: join}); err != nil {
		return nil, fmt.Errorf("serve: join send: %w", err)
	}
	rec.Add(obs.CounterBytesFramed, cluster.WireSize(len(join)))
	f, err := cluster.ReadFrame(conn, cluster.MaxErrorPayload)
	if err != nil {
		return nil, fmt.Errorf("serve: join reply: %w", err)
	}
	rec.Add(obs.CounterBytesFramed, cluster.WireSize(len(f.Payload)))
	switch f.Kind {
	case cluster.FrameJoinAck:
	case cluster.FrameError:
		return nil, fmt.Errorf("serve: server rejected join: %s", f.Payload)
	default:
		return nil, fmt.Errorf("serve: expected join ack, got frame kind %#x", f.Kind)
	}
	peer, err := cluster.DecodeHello(f.Payload)
	if err != nil {
		return nil, err
	}
	if err := cluster.CheckHello(local, peer); err != nil {
		return nil, err
	}
	return &Client{
		conn:   conn,
		boot:   boot,
		tenant: tenant,
		rec:    rec,
		maxAcc: cluster.AccPayloadBound(boot.Params.Parameters),
	}, nil
}

// UploadKey streams the tenant's blind-rotate key into the server registry
// over the resumable chunked key-stream protocol. chunkBytes ≤ 0 takes the
// cluster default.
func (c *Client) UploadKey(chunkBytes int, timeout time.Duration) error {
	brk := c.boot.BlindRotateKey()
	if brk == nil {
		return errors.New("serve: client bootstrapper holds no blind-rotate key")
	}
	var buf bytes.Buffer
	if _, err := brk.WriteTo(&buf); err != nil {
		return err
	}
	blob := buf.Bytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	return cluster.StreamKey(c.conn, blob, crc32.ChecksumIEEE(blob), chunkBytes, timeout, c.rec)
}

// Rotate submits one job of prepared LWE ciphertexts and blocks until every
// accumulator is back (or the job is rejected/failed). budget > 0 is the
// job's deadline, carried to the server in milliseconds; accs[i] corresponds
// to lwes[i].
func (c *Client) Rotate(lwes []*rlwe.LWECiphertext, budget time.Duration) ([]*rlwe.Ciphertext, error) {
	if len(lwes) == 0 {
		return nil, errors.New("serve: empty job")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	id := c.nextID
	idxs := make([]int, len(lwes))
	for i := range idxs {
		idxs[i] = i
	}
	payload, err := cluster.EncodeBatch(idxs, lwes)
	if err != nil {
		return nil, err
	}
	var budgetMs uint32
	if budget > 0 {
		ms := (budget + time.Millisecond - 1) / time.Millisecond
		budgetMs = uint32(ms)
		if budgetMs == 0 {
			budgetMs = 1
		}
	}
	if err := cluster.WriteFrame(c.conn, &cluster.Frame{Kind: cluster.FrameBatch, Shard: id, Seq: budgetMs, Payload: payload}); err != nil {
		return nil, fmt.Errorf("serve: job send: %w", err)
	}
	c.rec.Add(obs.CounterBytesFramed, cluster.WireSize(len(payload)))

	accs := make([]*rlwe.Ciphertext, len(lwes))
	got := 0
	for {
		f, err := cluster.ReadFrame(c.conn, c.maxAcc)
		if err != nil {
			return nil, fmt.Errorf("serve: job %d reply: %w", id, err)
		}
		c.rec.Add(obs.CounterBytesFramed, cluster.WireSize(len(f.Payload)))
		if f.Shard != id {
			return nil, fmt.Errorf("serve: reply for job %d while waiting on %d", f.Shard, id)
		}
		switch f.Kind {
		case cluster.FrameAcc:
			idx, acc, err := cluster.DecodeAcc(f.Payload, c.boot.Params.Parameters, len(lwes))
			if err != nil {
				return nil, err
			}
			if accs[idx] != nil {
				return nil, fmt.Errorf("serve: duplicate accumulator %d for job %d", idx, id)
			}
			accs[idx] = acc
			got++
		case cluster.FrameBatchEnd:
			if got != len(lwes) {
				return nil, fmt.Errorf("serve: job %d ended with %d/%d accumulators", id, got, len(lwes))
			}
			return accs, nil
		case cluster.FrameRejected:
			reason, err := cluster.DecodeReason(f.Payload)
			if err != nil {
				reason = string(f.Payload)
			}
			return nil, &RejectedError{Reason: reason}
		case cluster.FrameError:
			return nil, fmt.Errorf("serve: job %d failed: %s", id, f.Payload)
		default:
			return nil, fmt.Errorf("serve: unexpected frame kind %#x for job %d", f.Kind, id)
		}
	}
}

// Bootstrap refreshes ct through the service: Prepare locally, ship the
// blind rotations, Finish locally. Bit-identical to boot.Bootstrap(ct) —
// the server computes the same deterministic rotations under the same key.
func (c *Client) Bootstrap(ct *rlwe.Ciphertext, budget time.Duration) (*rlwe.Ciphertext, error) {
	prep := c.boot.Prepare(ct)
	accs, err := c.Rotate(prep.LWEs, budget)
	if err != nil {
		return nil, err
	}
	return c.boot.Finish(prep, accs)
}

// Close sends a clean shutdown and closes the connection when it can.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_ = cluster.WriteFrame(c.conn, &cluster.Frame{Kind: cluster.FrameShutdown})
	if cl, ok := c.conn.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}
