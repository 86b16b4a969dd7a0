package cluster

import (
	"errors"
	"io"
	"sync"
	"time"
)

// ErrInjected marks a failure manufactured by a FaultConn, so tests can
// distinguish injected faults from real ones.
var ErrInjected = errors.New("cluster: injected fault")

// FaultPlan configures a FaultConn. The zero value injects nothing. All
// injections are deterministic functions of the byte/call counters and the
// seed, so a failing chaos test replays exactly.
type FaultPlan struct {
	// Seed drives the deterministic corruption PRNG.
	Seed uint64

	// CutReadAfter kills the connection once this many bytes have been
	// read (0 = never): the read fails with ErrInjected and the underlying
	// conn is closed — a mid-stream disconnect.
	CutReadAfter int

	// CorruptEvery flips one bit in every CorruptEvery-th byte read
	// (0 = never) — a lying link the CRC must catch.
	CorruptEvery int

	// MaxReadChunk caps each Read at this many bytes (0 = no cap),
	// exercising short-read handling in the frame decoder.
	MaxReadChunk int

	// WriteDelay sleeps before each write — a slow peer. Every frame is one
	// Write (WriteFrame), so on the secondary's end it delays each frame.
	WriteDelay time.Duration

	// StallWriteAfter blocks writes forever (until Close) once this many
	// bytes have been written (0 = never) — a wedged peer that triggers the
	// primary's batch deadline.
	StallWriteAfter int
}

// FaultConn wraps a connection and injects faults per its plan. It is the
// software stand-in for the paper's fragile inter-FPGA links: drops, delays,
// short reads, bit corruption, and mid-stream disconnects, all reproducible
// from a seed.
type FaultConn struct {
	inner Conn
	plan  FaultPlan

	mu         sync.Mutex
	rng        uint64
	readBytes  int
	writeBytes int

	closeOnce sync.Once
	closed    chan struct{}
}

// NewFaultConn wraps conn with the given plan.
func NewFaultConn(conn Conn, plan FaultPlan) *FaultConn {
	return &FaultConn{inner: conn, plan: plan, rng: plan.Seed | 1, closed: make(chan struct{})}
}

func (f *FaultConn) Read(p []byte) (int, error) {
	select {
	case <-f.closed:
		return 0, io.ErrClosedPipe
	default:
	}
	f.mu.Lock()
	if f.plan.CutReadAfter > 0 && f.readBytes >= f.plan.CutReadAfter {
		f.mu.Unlock()
		f.Close()
		return 0, ErrInjected
	}
	if f.plan.MaxReadChunk > 0 && len(p) > f.plan.MaxReadChunk {
		p = p[:f.plan.MaxReadChunk]
	}
	if f.plan.CutReadAfter > 0 && f.readBytes+len(p) > f.plan.CutReadAfter {
		p = p[:f.plan.CutReadAfter-f.readBytes]
	}
	start := f.readBytes
	f.mu.Unlock()

	n, err := f.inner.Read(p)

	f.mu.Lock()
	defer f.mu.Unlock()
	f.readBytes = start + n
	if f.plan.CorruptEvery > 0 {
		for i := 0; i < n; i++ {
			if (start+i)%f.plan.CorruptEvery == f.plan.CorruptEvery-1 {
				p[i] ^= 1 << (f.next() % 8)
			}
		}
	}
	return n, err
}

func (f *FaultConn) Write(p []byte) (int, error) {
	if f.plan.WriteDelay > 0 {
		f.sleep(f.plan.WriteDelay)
	}
	f.mu.Lock()
	if f.plan.StallWriteAfter > 0 && f.writeBytes >= f.plan.StallWriteAfter {
		f.mu.Unlock()
		<-f.closed // wedged until someone closes the conn
		return 0, io.ErrClosedPipe
	}
	f.mu.Unlock()

	n, err := f.inner.Write(p)

	f.mu.Lock()
	f.writeBytes += n
	f.mu.Unlock()
	return n, err
}

// Close unblocks any stalled operation and closes the underlying conn.
func (f *FaultConn) Close() error {
	var err error
	f.closeOnce.Do(func() {
		close(f.closed)
		err = f.inner.Close()
	})
	return err
}

// SetDeadline forwards to the underlying conn, so deadline-bounded round
// trips keep working through the wrapper.
func (f *FaultConn) SetDeadline(t time.Time) error { return f.inner.SetDeadline(t) }

// sleep waits for d or until the conn is closed.
func (f *FaultConn) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-f.closed:
	}
}

// next is a splitmix64 step (deterministic corruption choices).
func (f *FaultConn) next() uint64 {
	f.rng += 0x9E3779B97F4A7C15
	z := f.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
