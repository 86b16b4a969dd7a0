package cluster_test

import (
	"context"
	"encoding/binary"
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

// The elastic chaos suite: joins mid-run, graceful leaves, kills mid-key-
// upload, and the progress deadline under injected stalls and slow links.
// Every scenario must end bit-exact against the local reference bootstrap
// and leak no goroutines.

type runResult struct {
	out   *rlwe.Ciphertext
	stats *Stats
	err   error
}

// TestElasticJoinMidRunStealsWork starts an elastic bootstrap with zero
// secondaries, joins a key-warm node through the listener while the run is
// in flight, and requires that the joiner demonstrably stole work from the
// shared queue.
func TestElasticJoinMidRunStealsWork(t *testing.T) {
	fixture(t)
	before := runtime.NumGoroutine()

	m := NewMembership()
	l := NewPipeListener()
	// One local worker leaves plenty of queue for the joiner to steal.
	pr := &Primary{Boot: fixtureNode(t, 0, false)}
	acceptDone := make(chan struct{})
	go func() { _ = pr.AcceptJoins(m, l); close(acceptDone) }()

	opts := testOptions()
	resCh := make(chan runResult, 1)
	go func() {
		out, stats, err := pr.Bootstrap(context.Background(), fx.ct.CopyNew(), nil, m, opts)
		resCh <- runResult{out, stats, err}
	}()

	// Join mid-run: the work queue holds many tile tasks and the single
	// local worker needs milliseconds per tile, while the join handshake is
	// two tiny frames — the joiner always finds work left.
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	node := newNode(t, fixtureNode(t, 0, false))
	servDone := make(chan error, 1)
	go func() { servDone <- node.JoinAndServe(conn, "joiner") }()

	r := <-resCh
	if r.err != nil {
		t.Fatal(r.err)
	}
	var joiner *NodeStats
	for _, ns := range r.stats.Nodes {
		if ns.Name == "joiner" {
			joiner = ns
		}
	}
	if joiner == nil {
		t.Fatalf("joiner missing from stats:\n%s", r.stats)
	}
	if !joiner.Joined || joiner.Failed {
		t.Fatalf("joiner state wrong: %+v", joiner)
	}
	if joiner.Completed == 0 {
		t.Fatalf("joiner stole no work:\n%s", r.stats)
	}
	if r.stats.Joined == 0 {
		t.Fatalf("stats.Joined = 0, want > 0")
	}
	if joiner.Completed+r.stats.Local != r.stats.Total {
		t.Fatalf("rotations unaccounted:\n%s", r.stats)
	}
	if st, ok := m.State("joiner"); !ok || st != MemberActive {
		t.Fatalf("joiner membership state %v, want active", st)
	}
	assertBitExact(t, r.out)

	closeConn(conn)
	<-servDone // pipe closed; the serve loop is done either way
	node.Close()
	_ = l.Close()
	<-acceptDone
	assertNoGoroutineLeak(t, before)
}

// TestGracefulLeaveDrains joins a node that answers its first batch with a
// leave frame, and requires the primary to drain it — leave frame honored,
// no failure recorded, pending work reassigned, membership transitioned —
// while the bootstrap still completes bit-exact. The leaver is scripted on
// the wire (leaveAtFirstBatch): leaving is the node's word, and only the
// primary's handling of it is under test.
func TestGracefulLeaveDrains(t *testing.T) {
	fixture(t)
	before := runtime.NumGoroutine()

	m := NewMembership()
	l := NewPipeListener()
	pr := &Primary{Boot: fx.bt}
	acceptDone := make(chan struct{})
	go func() { _ = pr.AcceptJoins(m, l); close(acceptDone) }()

	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	servDone := make(chan error, 1)
	go func() { servDone <- leaveAtFirstBatch(conn, "leaver") }()
	// Wait for the registry to hold the joiner before starting the run.
	for {
		if _, ok := m.State("leaver"); ok {
			break
		}
		time.Sleep(time.Millisecond)
	}

	fx.bt.SetRecorder(newSendGate(t, obs.Nop{}))
	out, stats, err := pr.Bootstrap(context.Background(), fx.ct.CopyNew(), nil, m, testOptions())
	fx.bt.SetRecorder(nil)
	if err != nil {
		t.Fatal(err)
	}
	var leaver *NodeStats
	for _, ns := range stats.Nodes {
		if ns.Name == "leaver" {
			leaver = ns
		}
	}
	if leaver == nil {
		t.Fatalf("leaver missing from stats:\n%s", stats)
	}
	if !leaver.Left || leaver.Failed {
		t.Fatalf("leaver should be drained, not failed: %+v", leaver)
	}
	if leaver.Completed != 0 {
		t.Fatalf("leaver completed work after requesting leave: %+v", leaver)
	}
	if stats.Reassigned == 0 {
		t.Fatal("the leaver's batch was never reassigned")
	}
	if st, _ := m.State("leaver"); st != MemberLeft {
		t.Fatalf("membership state %v, want left", st)
	}
	if stats.NodeErrors() != nil {
		t.Fatalf("a graceful leave must not surface as a node error: %v", stats.NodeErrors())
	}
	assertBitExact(t, out)

	if err := <-servDone; err != nil {
		t.Fatalf("leaving secondary: %v", err)
	}
	closeConn(conn)
	_ = l.Close()
	<-acceptDone
	assertNoGoroutineLeak(t, before)
}

// leaveAtFirstBatch joins the primary at the far end of conn under name,
// key-warm, and answers the first batch it is sent with a leave frame.
func leaveAtFirstBatch(conn Conn, name string) error {
	hello := HelloFor(fx.bt)
	hello.Flags |= HelloFlagKeyWarm
	if err := Join(conn, hello, name, obs.Nop{}); err != nil {
		return err
	}
	maxPayload := max(BatchPayloadBound(fx.params.N(), LWEDim(fx.bt)), MaxKeyChunkPayload)
	for {
		f, err := ReadFrame(conn, maxPayload)
		if err != nil {
			return err
		}
		if f.Kind == FrameBatch {
			return WriteFrame(conn, &Frame{Kind: FrameLeave, Payload: EncodeReason("leave requested")})
		}
	}
}

// TestKillMidKeyUploadResumes is the headline key-streaming scenario: a
// cold node joins, its link dies partway through the chunked BRK upload,
// it rejoins under the same name, and the upload resumes from the last
// acked chunk. The receiver-side unique-chunk counters must account the
// blob exactly once — no full re-send — and the node must end fully warm.
// It runs for both key kinds: the exact-mode ternary key (Plus and Minus
// rows per index) and an n_t-mode binary key, whose blob carries Plus rows
// only.
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

	m := NewMembership()
	l := NewPipeListener()
	pr := &Primary{Boot: primary}
	SetKeyChunk(pr, chunkBytes)
	acceptDone := make(chan struct{})
	go func() { _ = pr.AcceptJoins(m, l); close(acceptDone) }()

	blobSize := tfhe.BRKBlobBytes(primary.Params.Parameters, LWEDim(primary), primary.BinaryKey())
	if blob, _, err := KeyBlob(primary.Params.Parameters, primary.BlindRotateKey()); err != nil || len(blob) != blobSize {
		t.Fatalf("serialized key is %d bytes (err %v), receivers expect %d", len(blob), err, blobSize)
	}
	chunkCount := (blobSize + chunkBytes - 1) / chunkBytes
	if chunkCount < 8 {
		t.Fatalf("fixture blob of %d bytes gives only %d chunks — too few to kill mid-upload", blobSize, chunkCount)
	}

	// First join: the connection dies after ~3 chunks have been read.
	conn1, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	fc := NewFaultConn(conn1, FaultPlan{Seed: 13, CutReadAfter: 3*chunkBytes + 4096})
	serv1 := make(chan error, 1)
	go func() { serv1 <- cold.JoinAndServe(fc, "cold") }()
	for {
		if _, ok := m.State("cold"); ok {
			break
		}
		time.Sleep(time.Millisecond)
	}

	opts := testOptions()
	resCh := make(chan runResult, 1)
	go func() {
		out, stats, err := pr.Bootstrap(context.Background(), fx.ct.CopyNew(), nil, m, opts)
		resCh <- runResult{out, stats, err}
	}()

	if err := <-serv1; err == nil {
		t.Fatal("the injected cut never fired")
	}
	_ = fc.Close()
	// The primary notices the dead link and marks the member down; only then
	// may the same name rejoin.
	for {
		if st, _ := m.State("cold"); st == MemberDead {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := int(coldMet.Counter(obs.CounterKeyChunks)); got == 0 || got >= chunkCount {
		t.Fatalf("kill-mid-upload landed outside the upload: %d of %d chunks received", got, chunkCount)
	}

	// Rejoin under the same name: the node's key receiver for its primary
	// survived the connection, so the resume point is whatever was acked.
	conn2, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	serv2 := make(chan error, 1)
	go func() { serv2 <- cold.JoinAndServe(conn2, "cold") }()

	r := <-resCh
	if r.err != nil {
		t.Fatal(r.err)
	}
	check(t, r.out)
	// The rejoin races the tail of the run; if the queue drained before the
	// join consumer saw it, the node is still waiting in the membership —
	// a second elastic run picks it up and completes the resumed upload.
	if !warm(cold) {
		r2 := <-func() chan runResult {
			ch := make(chan runResult, 1)
			go func() {
				out, stats, err := pr.Bootstrap(context.Background(), fx.ct.CopyNew(), nil, m, opts)
				ch <- runResult{out, stats, err}
			}()
			return ch
		}()
		if r2.err != nil {
			t.Fatal(r2.err)
		}
		check(t, r2.out)
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
	// the dead link, once on the rejoin.
	if resent := int(priMet.Counter(obs.CounterKeyChunkResent)); resent != chunkBytes {
		t.Fatalf("sender re-sent %d bytes, want exactly the chunk in flight at the cut (%d)", resent, chunkBytes)
	}
	if st, _ := m.State("cold"); st != MemberActive {
		t.Fatalf("rejoined node state %v, want active", st)
	}

	closeConn(conn2)
	<-serv2
	cold.Close()
	_ = l.Close()
	<-acceptDone
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
	out, stats, err := (&Primary{Boot: fx.bt}).Bootstrap(context.Background(), fx.ct.CopyNew(), nodes, nil, opts)
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
	out, stats, err := (&Primary{Boot: fx.bt}).Bootstrap(context.Background(), fx.ct.CopyNew(), nodes, nil, opts)
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

// TestMembersGaugeZeroAfterJoinerDies: a node joins before the bootstrap
// installs its recorder on the membership, then dies mid-run. The +1 of its
// join must move to the run's recorder with it, so the −1 of its death
// leaves the cluster-members gauge at 0, not −1.
func TestMembersGaugeZeroAfterJoinerDies(t *testing.T) {
	fixture(t)
	before := runtime.NumGoroutine()

	m := NewMembership()
	l := NewPipeListener()
	pr := &Primary{Boot: fx.bt}
	acceptDone := make(chan struct{})
	go func() { _ = pr.AcceptJoins(m, l); close(acceptDone) }()

	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	// The node's link dies partway into its first batch.
	fc := NewFaultConn(conn, FaultPlan{Seed: 17, CutReadAfter: 1 << 10})
	sec := newNode(t, fixtureNode(t, 0, false))
	servDone := make(chan error, 1)
	go func() { servDone <- sec.JoinAndServe(fc, "doomed") }()
	for {
		if _, ok := m.State("doomed"); ok {
			break
		}
		time.Sleep(time.Millisecond)
	}

	met := obs.NewMetrics()
	fx.bt.SetRecorder(newSendGate(t, met))
	out, stats, err := pr.Bootstrap(context.Background(), fx.ct.CopyNew(), nil, m, testOptions())
	fx.bt.SetRecorder(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Nodes) != 1 || !stats.Nodes[0].Failed {
		t.Fatalf("the joiner should have died mid-run:\n%s", stats)
	}
	if st, _ := m.State("doomed"); st != MemberDead {
		t.Fatalf("membership state %v, want dead", st)
	}
	if got := met.GaugeValue(obs.GaugeClusterMembers); got != 0 {
		t.Fatalf("cluster_members gauge = %d after the only member died, want 0", got)
	}
	assertBitExact(t, out)

	if err := <-servDone; err == nil {
		t.Fatal("the injected cut never fired")
	}
	_ = fc.Close()
	sec.Close()
	_ = l.Close()
	<-acceptDone
	assertNoGoroutineLeak(t, before)
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
	if err := Join(cp, HelloFor(fx.bt), "primary", obs.Nop{}); err != nil {
		t.Fatal(err)
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

// gateRecorder holds every shard-lane blind rotation on the node it is
// installed on until release is closed.
type gateRecorder struct {
	obs.Nop
	release chan struct{}
}

func (g *gateRecorder) Begin(s obs.Stage, lane int) obs.Token {
	if s == obs.StageBlindRotate && lane != obs.LanePipeline {
		<-g.release
	}
	return 0
}

// sendGate records to rec and holds the primary's local rotations until a
// batch send to some node begins, so that a joiner, which the primary's
// recorder sees only through its link's spans, draws before the local
// workers can drain the queue. A deadline opens it regardless.
type sendGate struct {
	obs.Recorder
	sent chan struct{}
	open func()
}

func newSendGate(t *testing.T, rec obs.Recorder) *sendGate {
	g := &sendGate{Recorder: rec, sent: make(chan struct{})}
	var once sync.Once
	g.open = func() { once.Do(func() { close(g.sent) }) }
	timer := time.AfterFunc(10*time.Second, g.open)
	t.Cleanup(func() { timer.Stop(); g.open() })
	return g
}

func (g *sendGate) Begin(s obs.Stage, lane int) obs.Token {
	switch {
	case s == obs.StageNetSend:
		g.open()
	case s == obs.StageBlindRotate && lane != obs.LanePipeline:
		<-g.sent
	}
	return g.Recorder.Begin(s, lane)
}

// TestKeyColdJoinerGetsKeyDoneFirst scripts a key-cold joiner that acks every
// chunk, while the primary's local worker is held so that work stays
// queued: the joiner must see key-done before its first batch. (Before
// protocol v5 the primary dispatched between chunks, and the last chunk's
// ack — the whole key held, key-done not yet sent — already drew a batch.)
func TestKeyColdJoinerGetsKeyDoneFirst(t *testing.T) {
	primary := fixtureNode(t, 0, false)
	before := runtime.NumGoroutine()
	gate := &gateRecorder{release: make(chan struct{})}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate.release) }) }
	defer release()
	primary.SetRecorder(gate)

	m := NewMembership()
	l := NewPipeListener()
	pr := &Primary{Boot: primary}
	SetKeyChunk(pr, 16<<10)
	acceptDone := make(chan struct{})
	go func() { _ = pr.AcceptJoins(m, l); close(acceptDone) }()

	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	hello := HelloFor(fx.bt)
	hello.Flags &^= HelloFlagKeyWarm
	if err := WriteFrame(conn, &Frame{Kind: FrameJoin, Payload: EncodeJoin(hello, "scripted")}); err != nil {
		t.Fatal(err)
	}
	if f, err := ReadFrame(conn, MaxErrorPayload); err != nil || f.Kind != FrameJoinAck {
		t.Fatalf("join: %v", err)
	}

	// The peer answers the key stream and stops at its first batch.
	type seen struct{ batch, doneBefore bool }
	peer := make(chan seen, 1)
	go func() {
		defer release()
		defer closeConn(conn)
		var s seen
		defer func() { peer <- s }()
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
	for {
		if _, ok := m.State("scripted"); ok {
			break
		}
		time.Sleep(time.Millisecond)
	}

	out, _, err := pr.Bootstrap(context.Background(), fx.ct.CopyNew(), nil, m, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	assertBitExact(t, out)
	if s := <-peer; !s.batch || !s.doneBefore {
		t.Fatalf("cold joiner saw a batch: %v, key-done before it: %v", s.batch, s.doneBefore)
	}

	_ = l.Close()
	<-acceptDone
	assertNoGoroutineLeak(t, before)
}

// slowAckListener hands out links whose join ack is written 50 ms late.
type slowAckListener struct{ Listener }

func (l slowAckListener) Accept() (Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return slowAckConn{c}, nil
}

type slowAckConn struct{ Conn }

func (c slowAckConn) Write(p []byte) (int, error) {
	// WriteFrame writes a frame in one call; its kind is the second word.
	if len(p) >= frameHeaderSize && binary.LittleEndian.Uint32(p[4:]) == FrameJoinAck {
		time.Sleep(50 * time.Millisecond)
	}
	return c.Conn.Write(p)
}

// entryGate is a gateRecorder that also reports when it first holds a
// rotation.
type entryGate struct {
	gateRecorder
	once    sync.Once
	entered chan struct{}
}

func (g *entryGate) Begin(s obs.Stage, lane int) obs.Token {
	if s == obs.StageBlindRotate && lane != obs.LanePipeline {
		g.once.Do(func() { close(g.entered) })
	}
	return g.gateRecorder.Begin(s, lane)
}

// TestElasticJoinAckPrecedesFirstBatch joins a node while a bootstrap runs,
// its local worker held so that work stays queued, over a link that writes
// the join ack 50 ms late. The ack must still reach the joiner before the
// run's first batch: the node serves work, and no index is reassigned.
// (Before the ack was ordered first, the joiner read the batch as its join
// reply, failed, and its indices were reassigned.)
func TestElasticJoinAckPrecedesFirstBatch(t *testing.T) {
	primary := fixtureNode(t, 0, false)
	before := runtime.NumGoroutine()
	gate := &entryGate{gateRecorder: gateRecorder{release: make(chan struct{})}, entered: make(chan struct{})}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate.release) }) }
	defer release()
	primary.SetRecorder(gate)

	m := NewMembership()
	l := NewPipeListener()
	pr := &Primary{Boot: primary}
	acceptDone := make(chan struct{})
	go func() { _ = pr.AcceptJoins(m, slowAckListener{l}); close(acceptDone) }()
	resCh := make(chan runResult, 1)
	go func() {
		out, stats, err := pr.Bootstrap(context.Background(), fx.ct.CopyNew(), nil, m, testOptions())
		resCh <- runResult{out, stats, err}
	}()
	<-gate.entered

	node := newNode(t, fixtureNode(t, 0, false))
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	servDone := make(chan error, 1)
	go func() { servDone <- node.JoinAndServe(conn, "late") }()
	for node.Metrics().Counter(obs.CounterJobsServed) == 0 {
		select {
		case err := <-servDone:
			release()
			<-resCh
			t.Fatalf("the joiner stopped before serving a batch: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	release()
	r := <-resCh
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.stats.Nodes) != 1 || r.stats.Nodes[0].Failed || r.stats.Nodes[0].Completed == 0 {
		t.Fatalf("the late-acked joiner should have served work:\n%s", r.stats)
	}
	if r.stats.Reassigned != 0 {
		t.Fatalf("%d indices reassigned, want 0:\n%s", r.stats.Reassigned, r.stats)
	}
	assertBitExact(t, r.out)

	closeConn(conn)
	<-servDone
	node.Close()
	_ = l.Close()
	<-acceptDone
	assertNoGoroutineLeak(t, before)
}
