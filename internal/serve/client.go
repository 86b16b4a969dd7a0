package serve

import (
	"errors"
	"fmt"
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
	conn cluster.Conn
	boot *core.Bootstrapper
	rec  obs.Recorder

	mu     sync.Mutex // serializes Rotate/UploadKey on this connection
	nextID uint32
}

// NewClient joins the server over conn under the given tenant name
// (cluster.Join: protocol version and parameter digest are checked both
// ways).
func NewClient(conn cluster.Conn, boot *core.Bootstrapper, tenant string, rec obs.Recorder) (*Client, error) {
	rec = obs.OrNop(rec)
	if _, err := cluster.Join(conn, cluster.HelloFor(boot), tenant, rec); err != nil {
		return nil, err
	}
	return &Client{conn: conn, boot: boot, rec: rec}, nil
}

// UploadKey streams the tenant's blind-rotate key into the server registry
// over the resumable chunked key-stream protocol. chunkBytes ≤ 0 takes the
// cluster default.
func (c *Client) UploadKey(chunkBytes int, timeout time.Duration) error {
	brk := c.boot.BlindRotateKey()
	if brk == nil {
		return errors.New("serve: client bootstrapper holds no blind-rotate key")
	}
	blob, crc, err := cluster.KeyBlob(c.boot.Params.Parameters, brk)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return cluster.StreamKey(c.conn, blob, crc, chunkBytes, timeout, c.rec)
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
	if err := cluster.SendBatch(c.conn, id, idxs, lwes, budget, c.rec); err != nil {
		return nil, fmt.Errorf("serve: job send: %w", err)
	}
	accs := make([]*rlwe.Ciphertext, len(lwes))
	err := cluster.ReadAccs(c.conn, id, idxs, c.boot.Params.Parameters, c.rec, func(idx int, acc *rlwe.Ciphertext) {
		accs[idx] = acc
	})
	var end *cluster.EndError
	switch {
	case err == nil:
		return accs, nil
	case errors.As(err, &end) && end.Kind == cluster.FrameRejected:
		return nil, &RejectedError{Reason: end.Reason}
	case errors.As(err, &end):
		return nil, fmt.Errorf("serve: job %d failed: %s", id, end.Reason)
	}
	return nil, fmt.Errorf("serve: job %d reply: %w", id, err)
}

// Close sends a clean shutdown and closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_ = cluster.Shutdown(c.conn)
	return c.conn.Close()
}
