package cluster_test

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	. "heap/internal/cluster"
	"heap/internal/obs"
	"heap/internal/serve"
	"heap/internal/tfhe"
)

// TestClusterTraceAccounting locks the observability contract of a
// distributed bootstrap: the pipeline phases recorded on the primary tile
// its end-to-end wall time within 5%, the per-node network spans land on
// shard lanes, byte counters account the framed traffic on both endpoints,
// and the flight/queue gauges return to zero.
func TestClusterTraceAccounting(t *testing.T) {
	params, cl, btPrimary := buildNode(t, 6)
	_, _, btSec := buildNode(t, 6)

	v := make([]complex128, params.Slots)
	for i := range v {
		v[i] = complex(0.3*float64(i%7)/7, 0)
	}
	ct := cl.EncryptAtLevel(v, 1)

	cp, cs := net.Pipe()
	node := newNode(t, btSec)
	secMet := node.Metrics()
	done := make(chan error, 1)
	go func() { done <- node.ServeConn(cs) }()

	met := obs.NewMetrics()
	tracer := obs.NewTracer()
	btPrimary.SetRecorder(obs.Combine(met, tracer))
	primary := &Primary{Boot: btPrimary}
	nodes := []*Node{{Conn: cp, Name: "sec-0"}}
	start := time.Now()
	out, stats, err := primary.Bootstrap(context.Background(), ct, nodes, DefaultOptions())
	wallMs := float64(time.Since(start).Microseconds()) / 1e3
	btPrimary.SetRecorder(nil)
	if err != nil {
		t.Fatal(err)
	}
	if out == nil || stats.Total != params.N() {
		t.Fatalf("unexpected result: out=%v stats=%+v", out != nil, stats)
	}
	if err := Shutdown(cp); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("secondary error: %v", err)
	}

	pipeMs := met.PipelineTotalMs()
	if diff := pipeMs - wallMs; diff < -0.05*wallMs || diff > 0.05*wallMs {
		t.Errorf("pipeline phases sum to %.3f ms, measured wall %.3f ms (>5%% apart)", pipeMs, wallMs)
	}

	snap := met.Snapshot()
	for _, stage := range []string{"ModSwitch", "Extract", "BlindRotate", "Repack", "Finish"} {
		if st := snap.Pipeline[stage]; st.Count != 1 {
			t.Errorf("pipeline stage %s: want exactly one span, got %+v", stage, st)
		}
	}
	if snap.Shards["NetSend"].Count == 0 || snap.Shards["NetRecv"].Count == 0 {
		t.Errorf("network spans missing from shard lanes: %+v", snap.Shards)
	}
	// Every rotation ran somewhere: remotely (received over the wire) or on
	// the primary's local workers. Local shard-lane BlindRotate spans are
	// per key-major tile — at least ⌈local/tile⌉ of them (tasks tile
	// independently, so partial tiles can add more), never more than one per
	// rotation — and the exact rotation count lives in the counters.
	remote := 0
	for i := range stats.Nodes {
		remote += stats.Nodes[i].Completed
	}
	minTiles := (stats.Local + tfhe.Tile - 1) / tfhe.Tile
	tileSpans := int(snap.Shards["BlindRotate"].Count)
	if tileSpans < minTiles || tileSpans > max(stats.Local, minTiles) {
		t.Errorf("local shard-lane tile spans = %d, want in [%d, %d] for %d local rotations (tile %d)",
			tileSpans, minTiles, max(stats.Local, minTiles), stats.Local, tfhe.Tile)
	}
	if got := int(met.Counter(obs.CounterBlindRotate)); got != stats.Local {
		t.Errorf("primary blind_rotates = %d, want stats.Local = %d", got, stats.Local)
	}
	if got := int(met.Counter(obs.CounterBlindRotateTile)); got != tileSpans {
		t.Errorf("primary blind_rotate_tiles = %d, want %d (one per tile span)", got, tileSpans)
	}
	if remote+stats.Local != stats.Total {
		t.Errorf("remote %d + local %d != total %d", remote, stats.Local, stats.Total)
	}
	// The secondary runs each dispatch batch through the batched engine:
	// exactly its completed rotations on the counter, and per-batch (not
	// per-LWE) BlindRotate spans on lane 0 so traces stay bounded.
	if got := int(secMet.Counter(obs.CounterBlindRotate)); got != remote {
		t.Errorf("secondary blind_rotates = %d, want %d", got, remote)
	}
	if remote > 0 {
		secSnap := secMet.Snapshot()
		spans := int(secSnap.Shards["BlindRotate"].Count)
		tilesSec := int(secMet.Counter(obs.CounterBlindRotateTile))
		// One span per batch (lane 0) plus one per tile (lanes ≥ 1): at most
		// 2× the tile count, and far below the per-LWE count at real sizes.
		if spans == 0 || spans > 2*tilesSec {
			t.Errorf("secondary BlindRotate spans = %d with %d tiles — want per-batch+per-tile, never per LWE",
				spans, tilesSec)
		}
	}

	// Both ends count every frame they send or receive: the join and its
	// ack, each batch, its accumulators and its batch end. The secondary
	// also read the shutdown frame this test wrote outside the primary's
	// recorder, so it counts exactly that frame more.
	pBytes := met.Counter(obs.CounterBytesFramed)
	sBytes := secMet.Counter(obs.CounterBytesFramed)
	if pBytes == 0 || sBytes == 0 {
		t.Errorf("bytes_framed: primary %d, secondary %d — both must be nonzero", pBytes, sBytes)
	}
	if want := pBytes + WireSize(0); sBytes != want {
		t.Errorf("secondary framed %d bytes, want the primary's %d plus the %d-byte shutdown frame", sBytes, pBytes, WireSize(0))
	}
	for g := obs.Gauge(0); int(g) < obs.NumGauges; g++ {
		if v := met.GaugeValue(g); v != 0 {
			t.Errorf("gauge %s = %d after completion, want 0", g, v)
		}
	}

	var buf bytes.Buffer
	if _, err := tracer.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := obs.ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if diff := tr.PipelineTotalMs() - wallMs; diff < -0.05*wallMs || diff > 0.05*wallMs {
		t.Errorf("trace pipeline spans sum to %.3f ms, measured wall %.3f ms (>5%% apart)",
			tr.PipelineTotalMs(), wallMs)
	}
	var netSpans int
	for _, ev := range tr.TraceEvents {
		if ev.Phase == "X" && (ev.Name == "NetSend" || ev.Name == "NetRecv") {
			if ev.Cat != "shard" || ev.Tid != 1 {
				t.Errorf("%s span on cat=%q tid=%d, want shard lane 0 (tid 1)", ev.Name, ev.Cat, ev.Tid)
			}
			netSpans++
		}
	}
	if netSpans == 0 {
		t.Error("trace has no network spans")
	}
}

// blindRotateLanes parses the tracer's timeline and counts the BlindRotate
// spans on each shard lane (lane k is trace thread k+1).
func blindRotateLanes(t *testing.T, tracer *obs.Tracer) map[int]int {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tracer.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := obs.ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	lanes := make(map[int]int)
	for _, ev := range tr.TraceEvents {
		if ev.Phase == "X" && ev.Cat == "shard" && ev.Name == "BlindRotate" {
			lanes[ev.Tid-1]++
		}
	}
	return lanes
}

// TestLocalShareFansOverWorkers: the primary's own share is cut into queue
// tasks like everyone else's, so with no secondaries — and again with every
// secondary dead on arrival — both local workers rotate (BlindRotate spans
// on both local shard lanes, which follow the node lanes). The ring is 2^7
// so that the run outlasts a scheduler time slice even at GOMAXPROCS 1.
func TestLocalShareFansOverWorkers(t *testing.T) {
	params, cl, bt := buildNode(t, 7)
	bt.Cfg.Workers = 2
	ct := cl.EncryptAtLevel(make([]complex128, params.Slots), 1)
	local := bt.Bootstrap(ct.CopyNew())
	dead := func() Conn {
		cp, cs := net.Pipe()
		cp.Close()
		cs.Close()
		return cp
	}
	for _, tc := range []struct {
		name  string
		nodes []*Node
	}{
		{"no-secondaries", nil},
		{"all-secondaries-dead", []*Node{{Conn: dead(), Name: "dead-0"}, {Conn: dead(), Name: "dead-1"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tracer := obs.NewTracer()
			bt.SetRecorder(tracer)
			defer bt.SetRecorder(nil)
			out, stats, err := (&Primary{Boot: bt}).Bootstrap(context.Background(), ct.CopyNew(), tc.nodes, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if stats.Local != stats.Total {
				t.Fatalf("expected all %d rotations local\n%s", stats.Total, stats)
			}
			lanes := blindRotateLanes(t, tracer)
			for w := 0; w < bt.Cfg.Workers; w++ {
				if lane := len(tc.nodes) + w; lanes[lane] == 0 {
					t.Errorf("local worker %d (lane %d) rotated nothing: spans by lane %v", w, lane, lanes)
				}
			}
			if b := params.QBasis.AtLevel(local.Level()); !b.Equal(local.C0, out.C0) || !b.Equal(local.C1, out.C1) {
				t.Fatal("result differs from the local bootstrap")
			}
		})
	}
}

// TestQueueTasksReachEveryStartingWorker runs with more starting workers
// than the n/Tile tasks whole tiles would make — one secondary and 16 local
// workers for the 128 rotations at this ring, against 16 whole tiles — so
// the queue must cut its tasks smaller (⌊128/17⌋ = 7) for each worker to
// draw one, and the secondary's first dispatch batch must leave a task for
// every worker yet to draw. A drawGate holds every local rotation until the
// secondary has drawn and each local lane has begun one, so no worker can
// finish a task and take a second before the others start; a queue that
// made too few tasks leaves the gate shut until its deadline and a lane
// empty.
func TestQueueTasksReachEveryStartingWorker(t *testing.T) {
	params, cl, bt := buildNode(t, 7)
	_, _, btSec := buildNode(t, 7)
	bt.Cfg.Workers = 16
	ct := cl.EncryptAtLevel(make([]complex128, params.Slots), 1)
	local := bt.Bootstrap(ct.CopyNew())

	cp, cs := net.Pipe()
	t.Cleanup(func() { cp.Close(); cs.Close() })
	node := newNode(t, btSec)
	go func() { _ = node.ServeConn(cs) }()
	gate, links := holdLocalUntilDrawn(t, bt, bt.Cfg.Workers, cp)
	nodes := []*Node{{Conn: links[0], Name: "sec-0"}}
	if workers, tiles := len(nodes)+bt.Cfg.Workers, params.N()/tfhe.Tile; workers <= tiles {
		t.Fatalf("%d starting workers do not outnumber the %d whole-tile tasks", workers, tiles)
	}

	out, stats, err := (&Primary{Boot: bt}).Bootstrap(context.Background(), ct.CopyNew(), nodes, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ns := stats.Nodes[0]; ns.Dispatched == 0 || ns.Failed {
		t.Fatalf("the secondary drew no task:\n%s", stats)
	}
	for w := 0; w < bt.Cfg.Workers; w++ {
		if lane := len(nodes) + w; !gate.began(lane) {
			t.Errorf("local worker %d (lane %d) drew no task\n%s", w, lane, stats)
		}
	}
	if b := params.QBasis.AtLevel(local.Level()); !b.Equal(local.C0, out.C0) || !b.Equal(local.C1, out.C1) {
		t.Fatal("result differs from the local bootstrap")
	}
}

// TestSecondaryBatchesFillWholeTiles: a secondary with four workers gets
// dispatch batches of many queue tasks, so its key-major engine runs whole
// tiles. Batches of a single 8-index task would give each of its workers a
// tile of 2 and lose the engine's key reuse.
func TestSecondaryBatchesFillWholeTiles(t *testing.T) {
	params, cl, bt := buildNode(t, 7)
	_, _, btSec := buildNode(t, 7)
	btSec.Cfg.Workers = 4
	ct := cl.EncryptAtLevel(make([]complex128, params.Slots), 1)
	local := bt.Bootstrap(ct.CopyNew())

	cp, cs := net.Pipe()
	t.Cleanup(func() { cp.Close(); cs.Close() })
	node := serve.NewServer(btSec, serve.Config{}) // four wide, not newNode's every core
	t.Cleanup(node.Close)
	secMet := node.Metrics()
	go func() { _ = node.ServeConn(cs) }()
	nodes := []*Node{{Conn: cp, Name: "sec-0"}}
	out, stats, err := (&Primary{Boot: bt}).Bootstrap(context.Background(), ct.CopyNew(), nodes, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rots, tiles := secMet.Counter(obs.CounterBlindRotate), secMet.Counter(obs.CounterBlindRotateTile)
	if rots == 0 || int(rots) != stats.Nodes[0].Completed {
		t.Fatalf("secondary rotated %d, primary received %d\n%s", rots, stats.Nodes[0].Completed, stats)
	}
	if tile := uint64(tfhe.Tile); 2*rots <= tile*tiles {
		t.Errorf("secondary ran %d rotations in %d tiles: under half of tile %d on average\n%s", rots, tiles, tile, stats)
	}
	if b := params.QBasis.AtLevel(local.Level()); !b.Equal(local.C0, out.C0) || !b.Equal(local.C1, out.C1) {
		t.Fatal("result differs from the local bootstrap")
	}
}
