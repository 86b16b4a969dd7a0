package serve

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"heap/internal/cluster"
	"heap/internal/obs"
	"heap/internal/rlwe"
	"heap/internal/tfhe"
)

// The deadline rule of execBatch: a job fails at the first tile past its
// deadline or at its first failed write, none of its remaining accumulators
// is framed, and the batch stops once no job in it is live.

// jobOf is rots synthetic LWE ciphertexts for serverBt's parameters.
func jobOf(dim int, twoN uint64, seed uint64, rots int) []*rlwe.LWECiphertext {
	var lwes []*rlwe.LWECiphertext
	for k := 0; k < rots; k++ {
		lwes = append(lwes, syntheticJob(dim, twoN, seed+uint64(k))...)
	}
	return lwes
}

// TestServiceCoalescedJobFailsAlone pools two jobs of one tenant into one
// batch behind a plugged executor. The first job fails after its first
// accumulator — its connection closes, or its budget passes on the server's
// clock — and the second job's accumulators still match the tenant's own
// rotations bit for bit.
func TestServiceCoalescedJobFailsAlone(t *testing.T) {
	for _, closeConn := range []bool{true, false} {
		name := "budget-passes"
		if closeConn {
			name = "conn-closes"
		}
		t.Run(name, func(t *testing.T) {
			var skew atomic.Int64 // the server clock's lead on the wall clock
			now := func() time.Time { return time.Now().Add(time.Duration(skew.Load())) }
			_, _, serverBt := buildBoot(t, 50, true)
			srv := newServer(serverBt, Config{}, now)
			pl := newPlug(srv)
			l, stop := startServer(t, srv)
			defer stop()

			_, _, bt := buildBoot(t, 60, false)
			doomed, survivor := dialClient(t, l, bt, "T"), dialClient(t, l, bt, "T")
			defer survivor.Close()
			if err := survivor.UploadKey(0, time.Minute); err != nil {
				t.Fatal(err)
			}
			dim, twoN := cluster.LWEDim(serverBt), uint64(2*serverBt.Params.N())
			doomedJob, survivorJob := jobOf(dim, twoN, 100, 16), jobOf(dim, twoN, 200, 16)

			plugCl := dialClient(t, l, bt, "plug")
			defer plugCl.Close()
			go func() { _, _ = plugCl.Rotate(syntheticJob(dim, twoN, 1), 0) }()
			<-pl.entered

			// The doomed job queues first, so its two tiles lead the batch.
			idxs := make([]int, len(doomedJob))
			for i := range idxs {
				idxs[i] = i
			}
			if err := cluster.SendBatch(doomed.conn, 1, idxs, doomedJob, time.Minute, obs.Nop{}); err != nil {
				t.Fatal(err)
			}
			waitQueueDepth(t, srv, 1)
			type result struct {
				accs []*rlwe.Ciphertext
				err  error
			}
			survived := make(chan result, 1)
			go func() {
				accs, err := survivor.Rotate(survivorJob, 0)
				survived <- result{accs, err}
			}()
			waitQueueDepth(t, srv, 2)
			close(pl.release)

			got := 0
			err := cluster.ReadAccs(doomed.conn, 1, idxs, bt.Params.Parameters, obs.Nop{}, func(int, *rlwe.Ciphertext) {
				if got++; got > 1 {
					return
				}
				if closeConn {
					_ = doomed.conn.Close()
				} else {
					skew.Store(int64(2 * time.Minute))
				}
			})
			var end *cluster.EndError
			switch {
			case closeConn && err == nil:
				t.Fatal("the doomed job's stream survived its closed connection")
			case !closeConn && (!errors.As(err, &end) || end.Kind != cluster.FrameError || !strings.Contains(end.Reason, "deadline")):
				t.Fatalf("the doomed job's stream ended with %v, want a deadline error frame", err)
			case !closeConn && got >= len(doomedJob):
				t.Fatalf("%d accumulators of the doomed job were framed past its deadline", got)
			}

			r := <-survived
			if r.err != nil {
				t.Fatal(r.err)
			}
			for k, lwe := range survivorJob {
				if !sameCiphertext(r.accs[k], bt.BlindRotateOne(lwe)) {
					t.Fatalf("survivor acc %d differs from the tenant's own rotation", k)
				}
			}
			stop()
			if ts := srv.Snapshot().Tenants["T"]; ts.Admitted != 2 || ts.Jobs != 1 || ts.Failed != 1 || ts.Coalesced != 2 {
				t.Fatalf("tenant ledger = %+v, want 2 admitted and coalesced, 1 served, 1 failed", ts)
			}
		})
	}
}

// TestServiceLoneJobGoneStopsBatch: a lone job whose connection closes after
// its first accumulator stops its batch — no tile is rotated for a reader
// that is gone.
func TestServiceLoneJobGoneStopsBatch(t *testing.T) {
	_, _, serverBt := buildBoot(t, 50, true)
	srv := NewServer(serverBt, Config{})
	l, stop := startServer(t, srv)
	defer stop()

	_, _, bt := buildBoot(t, 60, false)
	cl := dialClient(t, l, bt, "gone")
	if err := cl.UploadKey(0, time.Minute); err != nil {
		t.Fatal(err)
	}
	dim, twoN := cluster.LWEDim(serverBt), uint64(2*serverBt.Params.N())
	job := jobOf(dim, twoN, 300, 64)
	tiles := uint64(len(job) / tfhe.Tile)
	idxs := make([]int, len(job))
	for i := range idxs {
		idxs[i] = i
	}
	if err := cluster.SendBatch(cl.conn, 1, idxs, job, 0, obs.Nop{}); err != nil {
		t.Fatal(err)
	}
	if f, err := cluster.ReadFrame(cl.conn, cluster.AccPayloadBound(bt.Params.Parameters)); err != nil || f.Kind != cluster.FrameAcc {
		t.Fatalf("first reply: %v", err)
	}
	_ = cl.conn.Close()
	stop()

	if got := srv.Metrics().Counter(obs.CounterBlindRotateTile); got >= tiles {
		t.Fatalf("blind_rotate_tiles = %d: the batch rotated all %d tiles for a connection that was gone", got, tiles)
	}
	if ts := srv.Snapshot().Tenants["gone"]; ts.Admitted != 1 || ts.Failed != 1 {
		t.Fatalf("tenant ledger = %+v, want the one admitted job failed", ts)
	}
}

// waitQueueDepth waits until depth jobs are admitted and not yet dispatched.
func waitQueueDepth(t *testing.T, srv *Server, depth int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); srv.QueueDepth() != depth; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want %d", srv.QueueDepth(), depth)
		}
	}
}
