package cluster_test

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"heap/internal/ckks"
	. "heap/internal/cluster"
	"heap/internal/core"
	"heap/internal/obs"
	"heap/internal/ring"
	"heap/internal/rlwe"
)

// startSecondary serves a node, with a bootstrapper of its own built from
// the shared seed, over one side of a pipe, optionally wrapped in a
// FaultConn on the secondary side, and returns the primary side. All conns
// are closed at test cleanup, which also unblocks any stalled fault
// injection.
func startSecondary(t *testing.T, plan *FaultPlan) Conn {
	t.Helper()
	cp, cs := net.Pipe()
	var sconn Conn = cs
	if plan != nil {
		fc := NewFaultConn(cs, *plan)
		t.Cleanup(func() { _ = fc.Close() })
		sconn = fc
	}
	node := newNode(t, fixtureNode(t, 0, false))
	go func() { _ = node.ServeConn(sconn) }()
	t.Cleanup(func() { cp.Close(); cs.Close() })
	return cp
}

// drawGate holds the primary's local rotations, as gateRecorder does, until
// every starting worker holds a task: each node link it wraps has carried
// the primary's first write (the join it sends right after that node draws
// its first task) and, with locals > 0, that many local shard lanes have
// each begun a rotation. Without it the local workers can drain the queue
// before a node draws anything, and the node never reaches its fault. A
// deadline opens the gate regardless, so a worker that never draws fails the
// test on its assertions instead of hanging it.
type drawGate struct {
	gateRecorder
	locals  int // local lanes that must begin a rotation
	mu      sync.Mutex
	waiting int // wrapped links not yet written, plus local lanes not yet begun
	lanes   map[int]bool
	open    func()
}

// holdLocalUntilDrawn installs a drawGate, recording to primary's recorder,
// on primary for the test's duration and returns the links wrapped so that
// their first write counts.
func holdLocalUntilDrawn(t *testing.T, primary *core.Bootstrapper, locals int, links ...Conn) (*drawGate, []Conn) {
	t.Helper()
	prev := primary.Recorder()
	g := &drawGate{gateRecorder: gateRecorder{Recorder: prev, release: make(chan struct{})}, locals: locals, waiting: len(links) + locals, lanes: make(map[int]bool)}
	var once sync.Once
	g.open = func() { once.Do(func() { close(g.release) }) }
	timer := time.AfterFunc(10*time.Second, g.open)
	primary.SetRecorder(g)
	t.Cleanup(func() {
		timer.Stop()
		g.open()
		primary.SetRecorder(prev)
	})
	wrapped := make([]Conn, len(links))
	for i, c := range links {
		wrapped[i] = &drawnConn{Conn: c, drawn: g.arrive}
	}
	return g, wrapped
}

func (g *drawGate) arrive() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.waiting--; g.waiting == 0 {
		g.open()
	}
}

func (g *drawGate) Begin(s obs.Stage, lane int) obs.Token {
	if s == obs.StageBlindRotate && lane != obs.LanePipeline {
		g.mu.Lock()
		counts := !g.lanes[lane] && len(g.lanes) < g.locals
		g.lanes[lane] = true
		g.mu.Unlock()
		if counts {
			g.arrive()
		}
	}
	return g.gateRecorder.Begin(s, lane)
}

// began reports whether a rotation began on shard lane.
func (g *drawGate) began(lane int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.lanes[lane]
}

// drawnConn is the primary's end of a node link that calls drawn at the
// primary's first write on it.
type drawnConn struct {
	Conn
	once  sync.Once
	drawn func()
}

func (c *drawnConn) Write(p []byte) (int, error) {
	c.once.Do(c.drawn)
	return c.Conn.Write(p)
}

// TestKillSecondaryMidStream cuts one secondary's link partway through its
// accumulator stream (a node dying mid-bootstrap). The primary must detect
// the partial stream, reassign the unfinished LWE indices, and still
// produce the bit-exact result — the issue's headline failure mode.
func TestKillSecondaryMidStream(t *testing.T) {
	fixture(t)
	// The hello reply is one 48-byte frame; each accumulator frame is
	// ~3.1 KB at these parameters. Cut the primary's read side mid-shard,
	// after roughly two accumulators.
	flaky := NewFaultConn(startSecondary(t, nil), FaultPlan{Seed: 7, CutReadAfter: 6800})
	t.Cleanup(func() { _ = flaky.Close() })
	healthy := startSecondary(t, nil)

	nodes := []*Node{
		{Conn: flaky, Name: "flaky"},
		{Conn: healthy, Name: "healthy"},
	}
	out, stats, err := (&Primary{Boot: fx.bt}).Bootstrap(context.Background(), fx.ct.CopyNew(), nodes, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Nodes[0].Failed {
		t.Fatalf("flaky node not marked failed: %+v", stats.Nodes[0])
	}
	if stats.Reassigned == 0 {
		t.Fatal("no indices were reassigned — the failure path was not exercised")
	}
	if stats.Nodes[0].Completed >= stats.Nodes[0].Dispatched {
		t.Fatalf("expected a partial shard on the flaky node: %+v", stats.Nodes[0])
	}
	if got := stats.Nodes[0].Completed + stats.Nodes[1].Completed + stats.Local; got != stats.Total {
		t.Fatalf("rotations accounted %d, want %d\n%s", got, stats.Total, stats)
	}
	if stats.NodeErrors() == nil {
		t.Fatal("expected a node error for the killed secondary")
	}
	assertBitExact(t, out)
}

// TestAllSecondariesDeadFallsBackLocal: with every peer dead on arrival the
// bootstrap must degrade gracefully to pure local execution.
func TestAllSecondariesDeadFallsBackLocal(t *testing.T) {
	fixture(t)
	dead := func() Conn {
		cp, cs := net.Pipe()
		cp.Close()
		cs.Close()
		return cp
	}
	_, links := holdLocalUntilDrawn(t, fx.bt, 0, dead(), dead())
	nodes := []*Node{
		{Conn: links[0], Name: "dead-0"},
		{Conn: links[1], Name: "dead-1"},
	}
	out, stats, err := (&Primary{Boot: fx.bt}).Bootstrap(context.Background(), fx.ct.CopyNew(), nodes, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Local != stats.Total {
		t.Fatalf("expected all %d rotations local, got %d\n%s", stats.Total, stats.Local, stats)
	}
	if stats.Reassigned == 0 {
		t.Fatal("dead shards were never reassigned")
	}
	for i := range stats.Nodes {
		if !stats.Nodes[i].Failed {
			t.Fatalf("node %d should be failed", i)
		}
	}
	assertBitExact(t, out)
}

// TestDelayedPeerTimeout wedges a secondary after its handshake (it accepts
// the batch but never streams accumulators); the per-batch deadline must
// fire and the shard must complete elsewhere.
func TestDelayedPeerTimeout(t *testing.T) {
	fixture(t)
	// The hello reply is one 48-byte write; stall every write after it.
	stalled := startSecondary(t, &FaultPlan{Seed: 3, StallWriteAfter: 48})
	nodes := []*Node{{Conn: stalled, Name: "wedged"}}
	opts := testOptions()
	opts.BatchTimeout = 250 * time.Millisecond

	start := time.Now()
	out, stats, err := (&Primary{Boot: fx.bt}).Bootstrap(context.Background(), fx.ct.CopyNew(), nodes, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Nodes[0].Failed {
		t.Fatal("wedged node not marked failed")
	}
	if stats.Reassigned == 0 || stats.Local != stats.Total {
		t.Fatalf("wedged shard not reassigned to local compute\n%s", stats)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatalf("timeout did not bound the wedged peer (took %v)", time.Since(start))
	}
	if nerr := stats.NodeErrors(); !errors.Is(nerr, os.ErrDeadlineExceeded) || !strings.Contains(nerr.Error(), "timed out after") {
		t.Fatalf("node error does not report the batch timeout: %v", nerr)
	}
	assertBitExact(t, out)
}

// noDeadlineConn is the primary's end of a link whose deadlines never fire,
// so only the node's own budget check can end a slow batch.
type noDeadlineConn struct{ Conn }

func (noDeadlineConn) SetDeadline(time.Time) error { return nil }

// TestDelayedPeerBudgetPassesMidBatch: a node that takes 100 ms to write each
// frame passes its batch's 300 ms budget mid-batch. It refuses the batch at
// the first tile past the budget, the primary requeues the unfinished
// indices, and the result is still bit-exact.
func TestDelayedPeerBudgetPassesMidBatch(t *testing.T) {
	fixture(t)
	slow := startSecondary(t, &FaultPlan{Seed: 3, WriteDelay: 100 * time.Millisecond})
	opts := testOptions()
	opts.BatchTimeout = 300 * time.Millisecond
	_, links := holdLocalUntilDrawn(t, fx.bt, 0, noDeadlineConn{slow})
	nodes := []*Node{{Conn: links[0], Name: "slow"}}
	out, stats, err := (&Primary{Boot: fx.bt}).Bootstrap(context.Background(), fx.ct.CopyNew(), nodes, opts)
	if err != nil {
		t.Fatal(err)
	}
	ns := stats.Nodes[0]
	if !ns.Failed || ns.Err == nil || !strings.Contains(ns.Err.Error(), "deadline") {
		t.Fatalf("the slow node's batch was not refused for its budget: %+v", ns)
	}
	t.Logf("slow node: %v", ns.Err)
	if stats.Reassigned == 0 || ns.Completed >= ns.Dispatched {
		t.Fatalf("the refused batch was not requeued:\n%s", stats)
	}
	assertBitExact(t, out)
}

// TestCorruptLinkDetected: flipped bits on the wire must be caught by the
// frame CRC (never a panic, never silent corruption) and the shard must be
// recomputed elsewhere, keeping the result bit-exact.
func TestCorruptLinkDetected(t *testing.T) {
	fixture(t)
	lying := NewFaultConn(startSecondary(t, nil), FaultPlan{Seed: 5, CorruptEvery: 701})
	t.Cleanup(func() { _ = lying.Close() })
	nodes := []*Node{{Conn: lying, Name: "lying"}}
	out, stats, err := (&Primary{Boot: fx.bt}).Bootstrap(context.Background(), fx.ct.CopyNew(), nodes, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Nodes[0].Failed {
		t.Fatal("corrupting link was not detected")
	}
	if stats.Local != stats.Total {
		t.Fatalf("corrupted shard must be fully recomputed locally\n%s", stats)
	}
	assertBitExact(t, out)
}

// TestShortReadsAndDelays: a slow, fragmenting (but honest) link must not
// trip any failure path — io.ReadFull framing absorbs short reads.
func TestShortReadsAndDelays(t *testing.T) {
	fixture(t)
	slow := NewFaultConn(startSecondary(t, nil), FaultPlan{Seed: 9, MaxReadChunk: 7})
	t.Cleanup(func() { _ = slow.Close() })
	nodes := []*Node{{Conn: slow, Name: "slow"}}
	out, stats, err := (&Primary{Boot: fx.bt}).Bootstrap(context.Background(), fx.ct.CopyNew(), nodes, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Nodes[0].Failed || stats.Reassigned != 0 {
		t.Fatalf("short reads should be harmless: %s", stats)
	}
	if stats.Nodes[0].Completed == 0 {
		t.Fatal("slow node did no work")
	}
	assertBitExact(t, out)
}

// TestHandshakeRejectsMismatchedParams: a secondary built from a different
// parameter set must be refused at connection setup, and the bootstrap must
// complete without it.
func TestHandshakeRejectsMismatchedParams(t *testing.T) {
	fixture(t)
	logN := 5
	q := ring.GenerateNTTPrimes(30, logN, 3)
	p := ring.GenerateNTTPrimesUp(31, logN, 2)
	params := ckks.MustParameters(logN, q, p, ring.DefaultSigma, 2, float64(uint64(1)<<28), 1<<(logN-1))
	kg := rlwe.NewKeyGenerator(params.Parameters, 90)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	cfg := core.DefaultConfig()
	cfg.NT = 0
	cfg.Workers = 1
	alien, err := core.NewBootstrapper(params, kg, sk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, cs := net.Pipe()
	t.Cleanup(func() { cp.Close(); cs.Close() })
	node := newNode(t, alien)
	go func() { _ = node.ServeConn(cs) }()

	nodes := []*Node{{Conn: cp, Name: "alien"}}
	out, stats, err := (&Primary{Boot: fx.bt}).Bootstrap(context.Background(), fx.ct.CopyNew(), nodes, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	ns := stats.Nodes[0]
	if !ns.Failed || ns.Err == nil {
		t.Fatalf("mismatched node accepted: %+v", ns)
	}
	if !strings.Contains(ns.Err.Error(), "mismatch") {
		t.Fatalf("error does not name the mismatch: %v", ns.Err)
	}
	if ns.Completed != 0 {
		t.Fatal("mismatched node must not receive work")
	}
	assertBitExact(t, out)
}

// TestSecondaryRejectsOversizedBatch drives a node directly with crafted
// frames: a batch count above the parameter-derived maximum (n ≤ ring
// degree) must be rejected before any allocation.
func TestSecondaryRejectsOversizedBatch(t *testing.T) {
	fixture(t)
	cp, cs := net.Pipe()
	t.Cleanup(func() { cp.Close(); cs.Close() })
	done := make(chan error, 1)
	node := newNode(t, fixtureNode(t, 0, false))
	go func() { done <- node.ServeConn(cs) }()

	if err := WriteFrame(cp, &Frame{Kind: FrameJoin, Payload: EncodeJoin(HelloFor(fx.bt), "primary")}); err != nil {
		t.Fatal(err)
	}
	if f, err := ReadFrame(cp, helloPayloadSize); err != nil || f.Kind != FrameJoinAck {
		t.Fatalf("handshake reply: %v %+v", err, f)
	}
	// count = 2^32−1 with an otherwise empty payload: must fail on the
	// bound check, not by attempting a 4-billion-element make.
	payload := binary.LittleEndian.AppendUint32(nil, 0xFFFF_FFFF)
	if err := WriteFrame(cp, &Frame{Kind: FrameBatch, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(cp, MaxErrorPayload)
	if err != nil {
		t.Fatalf("expected an error frame, got %v", err)
	}
	if f.Kind != FrameError || !strings.Contains(string(f.Payload), "batch count") {
		t.Fatalf("expected a batch-count rejection, got kind %#x payload %q", f.Kind, f.Payload)
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "batch count") {
			t.Fatalf("ServeConn returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConn did not terminate")
	}
}

// TestRetiredFrameKindRefused sends a node frames of retired kinds over the
// primary's link: the hello (0x48454C4F, retired by protocol v7) on a fresh
// connection, and the health probe (0xB0070010, retired by v6) and the
// graceful leave (0xB0070014, retired by v8) after a valid join under
// PrimaryTenant. Each is answered with an error frame, and the node stops
// serving the connection with an error.
func TestRetiredFrameKindRefused(t *testing.T) {
	fixture(t)
	node := newNode(t, fixtureNode(t, 0, false))
	for _, retired := range []*Frame{
		{Kind: 0x4845_4C4F, Payload: EncodeHello(HelloFor(fx.bt))},
		{Kind: 0xB007_0010, Payload: make([]byte, 8)},
		{Kind: 0xB007_0014, Payload: EncodeReason("leave requested")},
	} {
		cp, cs := net.Pipe()
		served := make(chan error, 1)
		go func() { served <- node.ServeConn(cs) }()

		if retired.Kind != 0x4845_4C4F {
			if _, err := Join(cp, HelloFor(fx.bt), PrimaryTenant, obs.Nop{}); err != nil {
				t.Fatalf("handshake: %v", err)
			}
		}
		if err := WriteFrame(cp, retired); err != nil {
			t.Fatal(err)
		}
		f, err := ReadFrame(cp, MaxErrorPayload)
		if err != nil {
			t.Fatal(err)
		}
		if f.Kind != FrameError {
			t.Fatalf("retired frame kind %#x answered with kind %#x, want an error frame", retired.Kind, f.Kind)
		}
		select {
		case err := <-served:
			if err == nil {
				t.Fatalf("the node kept serving after retired frame kind %#x", retired.Kind)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("ServeConn did not end after retired frame kind %#x", retired.Kind)
		}
		cp.Close()
		cs.Close()
	}
}

// TestContextCancellation: a cancelled context aborts the bootstrap with an
// error instead of hanging or returning a partial result.
func TestContextCancellation(t *testing.T) {
	fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := (&Primary{Boot: fx.bt}).Bootstrap(ctx, fx.ct.CopyNew(), nil, testOptions())
	if err == nil {
		t.Fatal("cancelled bootstrap reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not carry the cancellation: %v", err)
	}
}

// TestChaosMatrix sweeps seeds over the cut-mid-stream fault with two
// secondaries, proving the bootstrap is bit-exact under every deterministic
// replay of the failure.
func TestChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is slow")
	}
	fixture(t)
	for _, seed := range []uint64{1, 2, 3} {
		cut := 4000 + int(seed)*2500
		flaky := NewFaultConn(startSecondary(t, nil), FaultPlan{Seed: seed, CutReadAfter: cut})
		healthy := startSecondary(t, nil)
		_, links := holdLocalUntilDrawn(t, fx.bt, 0, flaky)
		nodes := []*Node{
			{Conn: links[0], Name: "flaky"},
			{Conn: healthy, Name: "healthy"},
		}
		out, stats, err := (&Primary{Boot: fx.bt}).Bootstrap(context.Background(), fx.ct.CopyNew(), nodes, testOptions())
		fx.bt.SetRecorder(nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !stats.Nodes[0].Failed {
			t.Fatalf("seed %d: cut link not detected", seed)
		}
		assertBitExact(t, out)
		_ = flaky.Close()
	}
}
