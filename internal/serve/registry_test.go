package serve

import (
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"heap/internal/cluster"
	"heap/internal/obs"
	"heap/internal/tfhe"
)

// regFixture builds a registry plus freshly generated keys of the right
// dimension (every key the same size, so byte budgets count in keys).
func regFixture(t *testing.T, maxKeys int64, rec obs.Recorder) (*Registry, func(seed uint64) *tfhe.BlindRotateKey, int64) {
	t.Helper()
	_, _, bt := buildBoot(t, 40, false)
	size := int64(bt.BlindRotateKey().SizeBytes())
	gen := func(seed uint64) *tfhe.BlindRotateKey {
		_, _, tb := buildBoot(t, seed, false)
		return tb.BlindRotateKey()
	}
	p := bt.Params.Parameters
	var budget int64
	if maxKeys > 0 {
		budget = maxKeys * size
	}
	return NewRegistry(p, bt.Params.N(), bt.BinaryKey(), budget, rec), gen, size
}

func TestRegistryLRUEviction(t *testing.T) {
	met := obs.NewMetrics()
	reg, gen, size := regFixture(t, 2, met)

	if err := reg.Put("a", gen(41)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Put("b", gen(42)); err != nil {
		t.Fatal(err)
	}
	// Touch a so b becomes the LRU victim.
	if _, rel, err := reg.Acquire("a"); err != nil {
		t.Fatal(err)
	} else {
		rel()
	}
	if err := reg.Put("c", gen(43)); err != nil {
		t.Fatal(err)
	}

	resident := map[string]bool{}
	for _, tk := range reg.Resident() {
		resident[tk.Tenant] = true
	}
	if !resident["a"] || !resident["c"] || resident["b"] {
		t.Fatalf("resident = %v, want a and c with b evicted", resident)
	}
	if got := met.Counter(obs.CounterKeysEvicted); got != 1 {
		t.Fatalf("keys_evicted = %d, want 1", got)
	}
	if got := reg.Bytes(); got != 2*size {
		t.Fatalf("resident bytes = %d, want %d", got, 2*size)
	}
	if got := met.GaugeValue(obs.GaugeResidentTenants); got != 2 {
		t.Fatalf("resident_tenants gauge = %d, want 2", got)
	}
}

func TestRegistryPinBlocksEviction(t *testing.T) {
	reg, gen, _ := regFixture(t, 1, nil)
	if err := reg.Put("a", gen(41)); err != nil {
		t.Fatal(err)
	}
	_, rel, err := reg.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	// a is pinned and the budget is one key: b cannot be admitted.
	if err := reg.Put("b", gen(42)); !errors.Is(err, ErrRegistryFull) {
		t.Fatalf("want ErrRegistryFull while a is pinned, got %v", err)
	}
	rel()
	rel() // idempotent: the second release must not double-decrement
	if err := reg.Put("b", gen(42)); err != nil {
		t.Fatalf("after release the LRU key must give way: %v", err)
	}
	for _, tk := range reg.Resident() {
		if tk.Tenant == "a" {
			t.Fatal("a should have been evicted after its pin was released")
		}
	}
}

func TestRegistryNoKeyNoLoader(t *testing.T) {
	reg, _, _ := regFixture(t, 0, nil)
	if _, _, err := reg.Acquire("stranger"); !errors.Is(err, ErrNoKey) {
		t.Fatalf("want ErrNoKey, got %v", err)
	}
}

func TestRegistryRejectsWrongDimension(t *testing.T) {
	reg, _, _ := regFixture(t, 0, nil)
	if err := reg.Put("a", nil); err == nil || !strings.Contains(err.Error(), "covers 0 indices") {
		t.Fatalf("nil key must be rejected with the dimension message, got %v", err)
	}
}

func TestRegistryStashStopAndWait(t *testing.T) {
	reg, _, _ := regFixture(t, 0, nil)
	// A chunk without an offer is a protocol error.
	if _, err := reg.receiveKey("t", &cluster.Frame{Kind: cluster.FrameKeyChunk}); err == nil {
		t.Fatal("chunk without offer must error")
	}
	if _, err := reg.receiveKey("t", &cluster.Frame{Kind: cluster.FrameKeyDone, Payload: make([]byte, 4)}); err == nil {
		t.Fatal("done without offer must error")
	}
}

// TestServiceRefusesKeyDoneCRCMismatch uploads a whole key over the wire and
// closes it with a key-done whose CRC differs from the offer's: heapd must
// refuse it and install nothing. Every chunk's ack must carry the offer's
// CRC.
func TestServiceRefusesKeyDoneCRCMismatch(t *testing.T) {
	_, _, serverBt := buildBoot(t, 92, true)
	srv := NewServer(serverBt, Config{})
	l, stop := startServer(t, srv)
	defer stop()
	_, fx := buildStashFixture(t, 93, 64<<10)
	_, _, bt := buildBoot(t, 93, false)
	cl := dialClient(t, l, bt, "liar")
	defer cl.Close()
	exchange := func(f *cluster.Frame) *cluster.Frame {
		t.Helper()
		if err := cluster.WriteFrame(cl.conn, f); err != nil {
			t.Fatal(err)
		}
		r, err := cluster.ReadFrame(cl.conn, cluster.MaxErrorPayload)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	le := binary.LittleEndian
	offer := le.AppendUint64(nil, fx.offer.TotalSize)
	offer = le.AppendUint32(offer, fx.offer.ChunkSize)
	offer = le.AppendUint32(offer, fx.offer.ChunkCount)
	offer = le.AppendUint32(offer, fx.offer.BlobCRC)
	if r := exchange(&cluster.Frame{Kind: cluster.FrameKeyOffer, Payload: offer}); r.Kind != cluster.FrameKeyResume {
		t.Fatalf("offer answered with frame kind %#x: %s", r.Kind, r.Payload)
	}
	for i := uint32(0); i < fx.offer.ChunkCount; i++ {
		r := exchange(&cluster.Frame{Kind: cluster.FrameKeyChunk, Seq: i, Payload: fx.chunk(i)})
		if r.Kind != cluster.FrameKeyAck || len(r.Payload) != 8 {
			t.Fatalf("chunk %d answered with frame kind %#x: %s", i, r.Kind, r.Payload)
		}
		if crc := le.Uint32(r.Payload[4:]); crc != fx.offer.BlobCRC {
			t.Fatalf("chunk %d acked for CRC %#x, want the offer's %#x", i, crc, fx.offer.BlobCRC)
		}
	}
	done := le.AppendUint32(nil, fx.offer.BlobCRC^1)
	if r := exchange(&cluster.Frame{Kind: cluster.FrameKeyDone, Payload: done}); r.Kind != cluster.FrameError {
		t.Fatalf("key-done with a CRC other than the offer's answered with frame kind %#x", r.Kind)
	}
	if _, _, err := srv.reg.Acquire("liar"); !errors.Is(err, ErrNoKey) {
		t.Fatalf("a key-done with the wrong CRC installed a key: %v", err)
	}
}

// TestServiceRefusesRetiredFrameKind: a frame of a retired kind gets an error
// frame, and the server closes the connection. The inputs are the hello
// (0x48454C4F, retired by protocol v7) sent before any join, and the health
// probe (0xB0070010, retired by v6) and the graceful leave (0xB0070014,
// retired by v8) sent after a valid one.
func TestServiceRefusesRetiredFrameKind(t *testing.T) {
	_, _, bt := buildBoot(t, 92, false)
	srv := NewServer(bt, Config{})
	l, stop := startServer(t, srv)
	defer stop()
	for _, retired := range []*cluster.Frame{
		{Kind: 0x4845_4C4F, Payload: cluster.EncodeHello(cluster.HelloFor(bt))},
		{Kind: 0xB007_0010, Payload: make([]byte, 8)},
		{Kind: 0xB007_0014, Payload: cluster.EncodeReason("leave requested")},
	} {
		conn, err := l.Dial()
		if err != nil {
			t.Fatal(err)
		}
		if retired.Kind != 0x4845_4C4F {
			if _, err := NewClient(conn, bt, "prober", nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := cluster.WriteFrame(conn, retired); err != nil {
			t.Fatal(err)
		}
		f, err := cluster.ReadFrame(conn, cluster.MaxErrorPayload)
		if err != nil {
			t.Fatal(err)
		}
		if f.Kind != cluster.FrameError {
			t.Fatalf("retired frame kind %#x answered with kind %#x, want an error frame", retired.Kind, f.Kind)
		}
		if _, err := cluster.ReadFrame(conn, cluster.MaxErrorPayload); err != io.EOF {
			t.Fatalf("connection still open after the error frame for kind %#x: %v", retired.Kind, err)
		}
		_ = conn.Close()
	}
}

// TestServiceJoinAckSaysKeyWarm: the join ack carries HelloFlagKeyWarm
// exactly when the registry holds the joining tenant's key, which is what a
// primary reads to stream a node it dialed the key first.
func TestServiceJoinAckSaysKeyWarm(t *testing.T) {
	_, _, tenant := buildBoot(t, 93, false)
	_, _, cold := buildBoot(t, 94, true)
	srv := NewServer(cold, Config{})
	l, stop := startServer(t, srv)
	defer stop()
	warm := func(name string) bool {
		t.Helper()
		conn, err := l.Dial()
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		peer, err := cluster.Join(conn, cluster.HelloFor(tenant), name, obs.Nop{})
		if err != nil {
			t.Fatal(err)
		}
		return peer.Flags&cluster.HelloFlagKeyWarm != 0
	}
	if warm("t") {
		t.Fatal("a join acked key-warm before any key was registered")
	}
	if err := srv.reg.Put("t", tenant.BlindRotateKey()); err != nil {
		t.Fatal(err)
	}
	if !warm("t") {
		t.Fatal("a tenant whose key is registered was acked key-cold")
	}
	if warm("other") {
		t.Fatal("another tenant's key made a join key-warm")
	}
}
