package cluster_test

import (
	"context"
	"errors"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	. "heap/internal/cluster"
	"heap/internal/core"
	"heap/internal/obs"
	"heap/internal/rlwe"
	"heap/internal/serve"
	"heap/internal/tfhe"
)

// The dial-path chaos suite: a key-cold node the primary dials gets the
// whole key before its first batch, an upload killed mid-stream resumes on
// the next run's link, and the progress deadline cuts stalled and slow
// links. Every scenario must end bit-exact against the local reference
// bootstrap and leak no goroutines.

// TestKillMidKeyUploadResumes is the headline key-streaming scenario: the
// primary dials a key-cold node, the link dies partway through the chunked
// BRK upload, and the next run's fresh link resumes the upload from the last
// acked chunk. The receiver-side unique-chunk counters must account the blob
// exactly once — no full re-send — and the node must end fully warm. It runs
// for both key kinds: the exact-mode ternary key (Plus and Minus rows per
// index) and an n_t-mode binary key, whose blob carries Plus rows only.
func TestKillMidKeyUploadResumes(t *testing.T) {
	fixture(t)
	t.Run("ternary-exact", func(t *testing.T) {
		killMidKeyUpload(t, fixtureNode(t, 0, false), fixtureNode(t, 0, true), 64<<10, assertBitExact)
	})
	t.Run("binary-nt", func(t *testing.T) {
		primary := fixtureNode(t, 24, false)
		if !primary.BinaryKey() || !primary.BlindRotateKey().Binary {
			t.Fatal("an n_t-mode node must hold a binary key")
		}
		local := primary.Bootstrap(fx.ct.CopyNew())
		killMidKeyUpload(t, primary, fixtureNode(t, 24, true), 16<<10, func(t *testing.T, out *rlwe.Ciphertext) {
			t.Helper()
			b := fx.params.QBasis.AtLevel(local.Level())
			if !b.Equal(local.C0, out.C0) || !b.Equal(local.C1, out.C1) {
				t.Fatal("result differs from the local n_t-mode bootstrap")
			}
		})
	})
}

// killMidKeyUpload is TestKillMidKeyUploadResumes for one primary, one
// key-cold node of the same configuration and one chunk size; check judges
// each bootstrap the primary returns.
func killMidKeyUpload(t *testing.T, primary, coldBoot *core.Bootstrapper, chunkBytes int, check func(*testing.T, *rlwe.Ciphertext)) {
	before := runtime.NumGoroutine()

	cold := newNode(t, coldBoot)
	coldMet := cold.Metrics()

	priMet := obs.NewMetrics()
	primary.SetRecorder(priMet)
	defer primary.SetRecorder(nil)

	pr := &Primary{Boot: primary}
	SetKeyChunk(pr, chunkBytes)

	blobSize := tfhe.BRKBlobBytes(primary.Params.Parameters, LWEDim(primary), primary.BinaryKey())
	if blob, _, err := KeyBlob(primary.Params.Parameters, primary.BlindRotateKey()); err != nil || len(blob) != blobSize {
		t.Fatalf("serialized key is %d bytes (err %v), receivers expect %d", len(blob), err, blobSize)
	}
	chunkCount := (blobSize + chunkBytes - 1) / chunkBytes
	if chunkCount < 8 {
		t.Fatalf("fixture blob of %d bytes gives only %d chunks — too few to kill mid-upload", blobSize, chunkCount)
	}

	// run dials the cold node over a fresh link, its end wrapped in a
	// FaultConn when plan is non-nil, and bootstraps with it. The primary's
	// local rotations are held until the node has drawn a task and been
	// joined, so the key upload always starts.
	run := func(plan *FaultPlan) (*Stats, error) {
		cp, cs := net.Pipe()
		defer cp.Close()
		var sconn Conn = cs
		if plan != nil {
			sconn = NewFaultConn(cs, *plan)
		}
		served := make(chan error, 1)
		go func() { served <- cold.ServeConn(sconn) }()
		_, links := holdLocalUntilDrawn(t, primary, 0, cp)
		out, stats, err := pr.Bootstrap(context.Background(), fx.ct.CopyNew(), []*Node{{Conn: links[0], Name: "cold"}}, testOptions())
		primary.SetRecorder(priMet)
		if err != nil {
			t.Fatal(err)
		}
		check(t, out)
		_ = sconn.Close()
		return stats, <-served
	}

	// First run: the link dies after ~3 chunks have been read.
	stats, served := run(&FaultPlan{Seed: 13, CutReadAfter: 3*chunkBytes + 4096})
	if served == nil {
		t.Fatal("the injected cut never fired")
	}
	if ns := stats.Nodes[0]; !ns.Failed || !strings.Contains(ns.Err.Error(), "key upload") || ns.Dispatched != 0 {
		t.Fatalf("the cut should have failed the node's key upload before any batch:\n%s%v", stats, ns.Err)
	}
	if stats.Reassigned != 0 {
		t.Fatalf("%d indices reassigned from a node that held no work", stats.Reassigned)
	}
	if got := int(coldMet.Counter(obs.CounterKeyChunks)); got == 0 || got >= chunkCount {
		t.Fatalf("kill-mid-upload landed outside the upload: %d of %d chunks received", got, chunkCount)
	}
	if warm(cold) {
		t.Fatal("a half-uploaded key was installed")
	}

	// Second run: the node's key receiver for its primary survived the
	// connection, so the upload resumes from whatever was acked.
	stats, _ = run(nil)
	if err := stats.NodeErrors(); err != nil {
		t.Fatalf("the resumed upload failed: %v", err)
	}
	if !warm(cold) {
		t.Fatal("cold node never became key-warm")
	}

	// Resume accounting: every unique chunk was received exactly once across
	// both connections — the kill did not trigger a full re-send.
	if got := int(coldMet.Counter(obs.CounterKeyChunks)); got != chunkCount {
		t.Fatalf("receiver counted %d unique chunks, want exactly %d", got, chunkCount)
	}
	if got := int(coldMet.Counter(obs.CounterKeyChunkBytes)); got != blobSize {
		t.Fatalf("receiver counted %d unique chunk bytes, want exactly the %d-byte blob", got, blobSize)
	}
	// Stop-and-wait leaves only the unacked chunk to overlap. The cut lands
	// inside chunk 3's frame, so exactly that chunk goes out twice: once on
	// the dead link, once on the next run's.
	if resent := int(priMet.Counter(obs.CounterKeyChunkResent)); resent != chunkBytes {
		t.Fatalf("sender re-sent %d bytes, want exactly the chunk in flight at the cut (%d)", resent, chunkBytes)
	}

	cold.Close()
	assertNoGoroutineLeak(t, before)
}

// TestStalledNodeIsCut wedges the only secondary after its handshake: it
// reads its batch but writes nothing. No tile of accumulators arrives within
// twice the slowest local tile, so the progress deadline cuts the link long
// before testOptions' two-minute BatchTimeout, the node's indices are
// reassigned to the local workers, and the result is bit-exact with no
// goroutine leaked.
func TestStalledNodeIsCut(t *testing.T) {
	fixture(t)
	before := runtime.NumGoroutine()

	cp, cs := net.Pipe()
	fc := NewFaultConn(cs, FaultPlan{Seed: 3, StallWriteAfter: 48}) // wedge after the join ack
	node := newNode(t, fixtureNode(t, 0, false))
	servDone := make(chan error, 1)
	go func() { servDone <- node.ServeConn(fc) }()

	opts := testOptions()
	nodes := []*Node{{Conn: cp, Name: "wedged"}}
	start := time.Now()
	out, stats, err := (&Primary{Boot: fx.bt}).Bootstrap(context.Background(), fx.ct.CopyNew(), nodes, opts)
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	ns := stats.Nodes[0]
	if !ns.Failed || ns.Completed != 0 {
		t.Fatalf("the wedged node was not cut:\n%s", stats)
	}
	if !strings.Contains(ns.Err.Error(), "without a tile of accumulators") {
		t.Fatalf("the node was not cut by the progress deadline: %v", ns.Err)
	}
	if stats.Reassigned != ns.Dispatched || stats.Local != stats.Total {
		t.Fatalf("the wedged node's indices were not all reassigned to the local workers:\n%s", stats)
	}
	if took > opts.BatchTimeout/8 {
		t.Fatalf("the cut took %v, not far under the %v batch timeout", took, opts.BatchTimeout)
	}
	t.Logf("cut in %v: %v", took, ns.Err)
	assertBitExact(t, out)

	_ = fc.Close()
	cp.Close()
	cs.Close()
	<-servDone
	node.Close()
	assertNoGoroutineLeak(t, before)
}

// TestSlowNodeIsCut: a secondary that writes every frame a second late is
// alive, and each frame it sends is honest, but it delivers no tile of
// accumulators within twice the slowest local tile. The progress deadline
// fails it like a cut link, its pending indices go back on the queue, and the
// result is bit-exact.
func TestSlowNodeIsCut(t *testing.T) {
	fixture(t)
	slow := startSecondary(t, &FaultPlan{Seed: 11, WriteDelay: time.Second})
	nodes := []*Node{{Conn: slow, Name: "slow"}}
	opts := testOptions()
	start := time.Now()
	out, stats, err := (&Primary{Boot: fx.bt}).Bootstrap(context.Background(), fx.ct.CopyNew(), nodes, opts)
	if err != nil {
		t.Fatal(err)
	}
	ns := stats.Nodes[0]
	if !ns.Failed || !errors.Is(ns.Err, os.ErrDeadlineExceeded) {
		t.Fatalf("the slow node was not failed by its deadline:\n%s", stats)
	}
	if stats.Reassigned == 0 || ns.Completed+stats.Local != stats.Total {
		t.Fatalf("the slow node's pending indices were not reassigned:\n%s", stats)
	}
	if took := time.Since(start); took > opts.BatchTimeout/8 {
		t.Fatalf("the cut took %v, not far under the %v batch timeout", took, opts.BatchTimeout)
	}
	t.Logf("slow node: %v", ns.Err)
	assertBitExact(t, out)
}

// TestKeyColdSecondaryFailsEarlyBatch: a key-cold secondary installs its key
// once, at key-done, so a batch that arrives mid-upload is rejected — its
// tenant, the primary, has no key registered yet, which is heapd's rule for
// any tenant — nothing is rotated, and the node stays key-cold.
func TestKeyColdSecondaryFailsEarlyBatch(t *testing.T) {
	fixture(t)
	cold := newNode(t, fixtureNode(t, 0, true))
	cp, cs := net.Pipe()
	defer cp.Close()
	served := make(chan error, 1)
	go func() { served <- cold.ServeConn(cs) }()
	if peer, err := Join(cp, HelloFor(fx.bt), PrimaryTenant, obs.Nop{}); err != nil {
		t.Fatal(err)
	} else if peer.Flags&HelloFlagKeyWarm != 0 {
		t.Fatal("a key-cold node acked the join key-warm")
	}
	exchange := func(f *Frame) *Frame {
		t.Helper()
		if err := WriteFrame(cp, f); err != nil {
			t.Fatal(err)
		}
		r, err := ReadFrame(cp, MaxErrorPayload)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	// Half an upload: the offer and its first chunk.
	blob, crc, err := KeyBlob(fx.bt.Params.Parameters, fx.bt.BlindRotateKey())
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 16 << 10
	offer := KeyOffer{
		TotalSize:  uint64(len(blob)),
		ChunkSize:  chunk,
		ChunkCount: uint32((len(blob) + chunk - 1) / chunk),
		BlobCRC:    crc,
	}
	if r := exchange(&Frame{Kind: FrameKeyOffer, Payload: offer.Encode()}); r.Kind != FrameKeyResume {
		t.Fatalf("offer answered with frame kind %#x: %s", r.Kind, r.Payload)
	}
	if r := exchange(&Frame{Kind: FrameKeyChunk, Payload: blob[:chunk]}); r.Kind != FrameKeyAck {
		t.Fatalf("chunk answered with frame kind %#x: %s", r.Kind, r.Payload)
	}

	payload, err := EncodeBatch([]int{0}, fx.bt.Prepare(fx.ct.CopyNew()).LWEs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if r := exchange(&Frame{Kind: FrameBatch, Shard: 7, Payload: payload}); r.Kind != FrameRejected || !strings.Contains(string(r.Payload), serve.ErrNoKey.Error()) {
		t.Fatalf("batch before key-done answered with frame kind %#x (%q), want a no-key rejection", r.Kind, r.Payload)
	}
	if n := cold.Metrics().Counter(obs.CounterBlindRotate); n != 0 {
		t.Fatalf("the node rotated %d LWEs of a batch before key-done", n)
	}
	if warm(cold) {
		t.Fatal("a half-uploaded key was installed")
	}
	// The job was admitted and then failed for want of a key: it is Failed
	// only, not a door rejection as well.
	if got, want := cold.Snapshot().Tenants[PrimaryTenant], (serve.TenantStats{Admitted: 1, Failed: 1}); got != want {
		t.Fatalf("node ledger %+v, want %+v", got, want)
	}
	if n := cold.Metrics().Counter(obs.CounterJobsRejected); n != 0 {
		t.Fatalf("jobs_rejected = %d for a job that failed after admission", n)
	}
}

// gateRecorder records to its Recorder and holds every shard-lane blind
// rotation on the node it is installed on until release is closed.
type gateRecorder struct {
	obs.Recorder
	release chan struct{}
}

func (g *gateRecorder) Begin(s obs.Stage, lane int) obs.Token {
	if s == obs.StageBlindRotate && lane != obs.LanePipeline {
		<-g.release
	}
	return g.Recorder.Begin(s, lane)
}

// TestKeyColdDialedNodeGetsKeyDoneFirst dials a scripted key-cold node that
// acks every chunk, while the primary's local worker is held so that work
// stays queued: the node must see key-done before its first batch, and the
// run still ends bit-exact. (Before protocol v5 the primary dispatched
// between chunks, and the last chunk's ack — the whole key held, key-done
// not yet sent — already drew a batch.)
func TestKeyColdDialedNodeGetsKeyDoneFirst(t *testing.T) {
	primary := fixtureNode(t, 0, false)
	before := runtime.NumGoroutine()
	gate := &gateRecorder{Recorder: obs.Nop{}, release: make(chan struct{})}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate.release) }) }
	defer release()
	primary.SetRecorder(gate)
	defer primary.SetRecorder(nil)

	pr := &Primary{Boot: primary}
	SetKeyChunk(pr, 16<<10)
	cp, conn := net.Pipe()

	// The node acks the join key-cold, answers the key stream and stops at
	// its first batch.
	type seen struct{ batch, doneBefore bool }
	peer := make(chan seen, 1)
	go func() {
		defer release()
		defer closeConn(conn)
		var s seen
		defer func() { peer <- s }()
		if _, err := AcceptJoin(conn, HelloFor(fx.bt), obs.Nop{}, func(string) bool { return false }); err != nil {
			return
		}
		var crc uint32
		maxPayload := max(BatchPayloadBound(fx.params.N(), LWEDim(fx.bt)), MaxKeyChunkPayload)
		for {
			f, err := ReadFrame(conn, maxPayload)
			if err != nil {
				return
			}
			reply := &Frame{Kind: f.Kind, Payload: f.Payload}
			switch f.Kind {
			case FrameKeyOffer:
				o, err := decodeKeyOffer(f.Payload)
				if err != nil {
					return
				}
				crc = o.BlobCRC
				reply = &Frame{Kind: FrameKeyResume, Payload: encodeKeyResume(0, crc)}
			case FrameKeyChunk:
				reply = &Frame{Kind: FrameKeyAck, Payload: encodeKeyResume(f.Seq+1, crc)}
			case FrameKeyDone:
				s.doneBefore = true
			case FrameBatch:
				s.batch = true
				return
			}
			if err := WriteFrame(conn, reply); err != nil {
				return
			}
		}
	}()

	out, _, err := pr.Bootstrap(context.Background(), fx.ct.CopyNew(), []*Node{{Conn: cp, Name: "scripted"}}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	assertBitExact(t, out)
	if s := <-peer; !s.batch || !s.doneBefore {
		t.Fatalf("cold node saw a batch: %v, key-done before it: %v", s.batch, s.doneBefore)
	}
	closeConn(cp)
	assertNoGoroutineLeak(t, before)
}
