package main

import (
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"heap"
	"heap/internal/cluster"
	"heap/internal/obs"
)

// keyChunkBytes is the chunk size of a primary's key upload (256 KiB).
const keyChunkBytes = 256 << 10

// sendGate records to its Recorder and holds the primary's local rotations
// until the primary begins its first batch send to a node, so the node draws
// work after its key upload however fast the local workers are. A timer
// opens it regardless.
type sendGate struct {
	obs.Recorder
	sent chan struct{}
	once sync.Once
}

func (g *sendGate) open() { g.once.Do(func() { close(g.sent) }) }

func (g *sendGate) Begin(s obs.Stage, lane int) obs.Token {
	switch {
	case s == obs.StageNetSend:
		g.open()
	case s == obs.StageBlindRotate && lane != obs.LanePipeline:
		<-g.sent
	}
	return g.Recorder.Begin(s, lane)
}

// TestDaemonIsAClusterNode: a stock heapd, which is key-cold, is a cluster
// node. A primary built from heap.TestContextConfig dials it over TCP. The
// first run streams the node the whole key before its first batch; the node
// then rotates without a failure, and the result equals the local bootstrap
// bit for bit. A second run on a fresh connection finds the node key-warm and
// streams no chunk.
func TestDaemonIsAClusterNode(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon round trips are slow")
	}
	d, err := startDaemon(daemonConfig{addr: "127.0.0.1:0", scale: "test"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	met := d.srv.Metrics()

	primary, err := heap.NewContext(heap.TestContextConfig())
	if err != nil {
		t.Fatal(err)
	}
	v := make([]complex128, primary.Params.Slots)
	for i := range v {
		v[i] = complex(0.4, 0)
	}
	ct := primary.Client.EncryptAtLevel(v, 1)
	reference := primary.Boot.Bootstrap(ct)
	blob, _, err := cluster.KeyBlob(primary.Params.Parameters, primary.Boot.BlindRotateKey())
	if err != nil {
		t.Fatal(err)
	}
	chunks := uint64((len(blob) + keyChunkBytes - 1) / keyChunkBytes)

	pr := &cluster.Primary{Boot: primary.Boot}
	run := func() *cluster.Stats {
		t.Helper()
		conn, err := net.Dial("tcp", d.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		out, stats, err := pr.Bootstrap(context.Background(), ct, []*cluster.Node{{Conn: conn, Name: "heapd"}}, cluster.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := stats.NodeErrors(); err != nil {
			t.Fatalf("heapd failed as a node: %v", err)
		}
		if b := primary.Params.QBasis.AtLevel(reference.Level()); !b.Equal(reference.C0, out.C0) || !b.Equal(reference.C1, out.C1) {
			t.Fatal("the distributed result differs from the local bootstrap")
		}
		return stats
	}

	gate := &sendGate{Recorder: obs.Nop{}, sent: make(chan struct{})}
	timer := time.AfterFunc(30*time.Second, gate.open)
	defer timer.Stop()
	primary.Boot.SetRecorder(gate)
	stats := run()
	primary.Boot.SetRecorder(nil)
	if got := met.Counter(obs.CounterKeyChunks); got != chunks {
		t.Fatalf("heapd received %d key chunks, want the blob's %d", got, chunks)
	}
	if got := met.Counter(obs.CounterKeyChunkBytes); got != uint64(len(blob)) {
		t.Fatalf("heapd received %d key bytes, want the blob's %d", got, len(blob))
	}
	if ns := stats.Nodes[0]; ns.Completed == 0 || stats.Reassigned != 0 {
		t.Fatalf("heapd should have rotated with nothing reassigned:\n%s", stats)
	}

	run()
	if got := met.Counter(obs.CounterKeyChunks); got != chunks {
		t.Fatalf("the second run streamed %d key chunks to a key-warm node, want 0", got-chunks)
	}
}
