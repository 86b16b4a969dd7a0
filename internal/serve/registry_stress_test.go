package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heap/internal/cluster"
	"heap/internal/obs"
	"heap/internal/rlwe"
	"heap/internal/tfhe"
)

// stashFixture serializes one real blind-rotate key into the chunked-upload
// wire shape.
type stashFixture struct {
	blob   []byte
	offer  cluster.KeyOffer
	dim    int
	binary bool
}

func buildStashFixture(t *testing.T, seed uint64, chunkSize uint32) (*rlwe.Parameters, stashFixture) {
	t.Helper()
	_, _, bt := buildBoot(t, seed, false)
	blob, err := bt.BlindRotateKey().AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	count := (uint32(len(blob)) + chunkSize - 1) / chunkSize
	return bt.Params.Parameters, stashFixture{
		blob: blob,
		offer: cluster.KeyOffer{
			TotalSize:  uint64(len(blob)),
			ChunkSize:  chunkSize,
			ChunkCount: count,
			BlobCRC:    crc32.ChecksumIEEE(blob),
		},
		dim:    bt.BlindRotateKey().NumKeys(),
		binary: bt.BinaryKey(),
	}
}

func (fx *stashFixture) chunk(idx uint32) []byte {
	off := int(idx) * int(fx.offer.ChunkSize)
	end := off + int(fx.offer.ChunkSize)
	if end > len(fx.blob) {
		end = len(fx.blob)
	}
	return fx.blob[off:end]
}

// done sends tenant's key-done frame carrying the offer's CRC.
func (fx *stashFixture) done(reg *Registry, tenant string) error {
	crc := binary.LittleEndian.AppendUint32(nil, fx.offer.BlobCRC)
	_, err := reg.receiveKey(tenant, &cluster.Frame{Kind: cluster.FrameKeyDone, Payload: crc})
	return err
}

// TestRegistryStashDoneVsChunkRace drives the interleaving that used to be
// a data race: two connections of the same tenant, one streaming chunks
// while the other fires key-done. A done must detach the upload under the
// lock before it CRCs and parses the buffer, so a concurrent chunk write
// can never touch bytes the parser is reading (the race detector enforces
// exactly this under `make race`). A done that fires mid-upload drops the
// upload — the protocol's restart-from-fresh-offer rule — and the uploader
// resumes from the offer's resume point; a clean final upload must still
// land the key. The racer stands down once it has dropped the upload
// maxDrops times in a round, so every round races done against chunks and
// still ends: unbounded, a round lasts until an upload outruns a tight done
// loop, which under the race detector took minutes.
func TestRegistryStashDoneVsChunkRace(t *testing.T) {
	params, fx := buildStashFixture(t, 90, 4096)
	reg := NewRegistry(params, fx.dim, fx.binary, 0, nil)
	const (
		tenant   = "raced"
		maxDrops = 4
	)

	for round := 0; round < 3; round++ {
		stop := make(chan struct{})
		var doneOK atomic.Bool
		var drops atomic.Int32 // uploads the racer dropped, seen as restarts
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // the racing second connection
			defer wg.Done()
			for drops.Load() < maxDrops {
				select {
				case <-stop:
					return
				default:
				}
				if err := fx.done(reg, tenant); err == nil {
					doneOK.Store(true)
				}
				runtime.Gosched()
			}
		}()

		idx := uint32(0)
		have, err := reg.upload(tenant, false).Offer(fx.offer)
		if err != nil {
			t.Fatal(err)
		}
		idx = have
		for idx < fx.offer.ChunkCount {
			_, _, err := reg.upload(tenant, false).Chunk(idx, fx.chunk(idx), obs.Nop{})
			if err != nil {
				// The racing done dropped the upload mid-stream: restart from
				// a fresh offer, as a real uploader would.
				drops.Add(1)
				have, oerr := reg.upload(tenant, false).Offer(fx.offer)
				if oerr != nil {
					t.Fatal(oerr)
				}
				idx = have
				continue
			}
			idx++
		}
		close(stop)
		wg.Wait()
		t.Logf("round %d: the racing done dropped the upload %d times", round, drops.Load())
		// Settle the round: either the racer landed the completed blob, or we
		// finish it ourselves (retrying the full upload if the racer's LAST
		// done consumed the upload without the chunks being complete).
		if !doneOK.Load() {
			if err := fx.done(reg, tenant); err != nil {
				if _, err := reg.upload(tenant, false).Offer(fx.offer); err != nil {
					t.Fatal(err)
				}
				for i := uint32(0); i < fx.offer.ChunkCount; i++ {
					if _, _, err := reg.upload(tenant, false).Chunk(i, fx.chunk(i), obs.Nop{}); err != nil {
						t.Fatal(err)
					}
				}
				if err := fx.done(reg, tenant); err != nil {
					t.Fatalf("round %d: clean upload after race: %v", round, err)
				}
			}
		}
		key, rel, err := reg.Acquire(tenant)
		if err != nil {
			t.Fatalf("round %d: acquire after upload: %v", round, err)
		}
		if key.NumKeys() != fx.dim {
			t.Fatalf("round %d: key covers %d indices, want %d", round, key.NumKeys(), fx.dim)
		}
		rel()
	}
}

// TestRegistryEvictionNeverEvictsPinned stresses the LRU-vs-pin interaction:
// one goroutine repeatedly pins tenant "a" and asserts it stays resident for
// the whole pin, while churners hammer Put for other tenants against a
// byte budget that only fits two keys — every insert must evict, and the
// only legal victims are unpinned entries. The byte accounting must never
// exceed the budget.
func TestRegistryEvictionNeverEvictsPinned(t *testing.T) {
	params, fx := buildStashFixture(t, 91, 1<<20)
	key, err := readKey(params, fx)
	if err != nil {
		t.Fatal(err)
	}
	maxBytes := 2*int64(key.SizeBytes()) + 1
	reg := NewRegistry(params, fx.dim, fx.binary, maxBytes, nil)
	if err := reg.Put("a", key); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errc := make(chan error, 16)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) { // churner: rotate other tenants through the budget
			defer wg.Done()
			names := []string{"b", "c", "d"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := reg.Put(names[(i+w)%len(names)], key); err != nil {
					select {
					case errc <- fmt.Errorf("churner %d put: %v", w, err):
					default:
					}
					return
				}
				if b := reg.Bytes(); b > maxBytes {
					select {
					case errc <- fmt.Errorf("churner %d: accounted bytes %d exceed budget %d", w, b, maxBytes):
					default:
					}
					return
				}
				runtime.Gosched() // don't starve the pinner on one core
			}
		}(w)
	}

	resident := func(tenant string) bool {
		for _, tk := range reg.Resident() {
			if tk.Tenant == tenant {
				return true
			}
		}
		return false
	}
	reinstalls := 0
	for i := 0; i < 300; i++ {
		got, rel, err := reg.Acquire("a")
		if err != nil {
			// Evicted while unpinned — legal. Reinstall and keep going.
			if !errors.Is(err, ErrNoKey) {
				t.Fatalf("iteration %d: %v", i, err)
			}
			reinstalls++
			if err := reg.Put("a", key); err != nil {
				t.Fatalf("iteration %d: reinstall: %v", i, err)
			}
			continue
		}
		for probe := 0; probe < 3; probe++ {
			if !resident("a") {
				t.Fatalf("iteration %d: tenant a evicted while pinned", i)
			}
			runtime.Gosched()
		}
		if got.NumKeys() != fx.dim {
			t.Fatalf("iteration %d: pinned key covers %d indices, want %d", i, got.NumKeys(), fx.dim)
		}
		rel()
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	t.Logf("pinned tenant survived 300 pin cycles (%d reinstalls after unpinned evictions)", reinstalls)
}

func readKey(params *rlwe.Parameters, fx stashFixture) (*tfhe.BlindRotateKey, error) {
	return tfhe.DecodeBlindRotateKey(fx.blob, params, fx.binary)
}

// TestServiceKeyChurnUnderLoad runs the whole stack against a registry that
// only fits two of three tenants' keys: every upload evicts someone, and
// batches execute while other tenants' uploads churn the LRU — the pin on
// the executing batch's key is what keeps its rotations bit-exact. Evicted
// tenants see a non-fatal no-key rejection, re-upload on the same
// connection, and retry.
func TestServiceKeyChurnUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("full service churn is slow")
	}
	_, _, serverBt := buildBoot(t, 92, true)
	const tenants = 3

	// Size the budget off a real key: all tenants share the parameter set,
	// so every key has the same footprint.
	_, fx := buildStashFixture(t, 93, 1<<20)
	key, err := readKey(serverBt.Params.Parameters, fx)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(serverBt, Config{MaxKeyBytes: 2*int64(key.SizeBytes()) + 1})
	l, stop := startServer(t, srv)
	defer stop()

	dim := cluster.LWEDim(serverBt)
	twoN := uint64(2 * serverBt.Params.N())

	var wg sync.WaitGroup
	errs := make(chan error, tenants)
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			_, _, bt := buildBoot(t, uint64(95+10*ti), false)
			name := fmt.Sprintf("churny-%d", ti)
			cl := dialClient(t, l, bt, name)
			defer cl.Close()
			// An upload races with the other tenants' executing batches: with
			// both budget slots pinned, the registry refuses the install
			// (ErrRegistryFull) non-fatally on a still-open connection —
			// back off and retry until a pin releases.
			uploadWithRetry := func() error {
				for attempt := 0; ; attempt++ {
					err := cl.UploadKey(0, 0)
					if err == nil {
						return nil
					}
					if attempt > 50 || !strings.Contains(err.Error(), ErrRegistryFull.Error()) {
						return err
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
			if err := uploadWithRetry(); err != nil {
				errs <- fmt.Errorf("%s: initial upload: %v", name, err)
				return
			}
			for j := 0; j < 4; j++ {
				lwes := []*rlwe.LWECiphertext{
					syntheticJob(dim, twoN, uint64(5000+100*ti+j))[0],
					syntheticJob(dim, twoN, uint64(6000+100*ti+j))[0],
				}
				var accs []*rlwe.Ciphertext
				for attempt := 0; ; attempt++ {
					if attempt > 50 {
						errs <- fmt.Errorf("%s job %d: still failing after %d attempts", name, j, attempt)
						return
					}
					var err error
					accs, err = cl.Rotate(lwes, 0)
					if err == nil {
						break
					}
					rej := &RejectedError{}
					if errors.As(err, &rej) && strings.Contains(rej.Reason, ErrNoKey.Error()) {
						// Evicted by another tenant's upload: re-upload on the
						// SAME connection (rejections are non-fatal) and retry.
						if err := uploadWithRetry(); err != nil {
							errs <- fmt.Errorf("%s job %d: re-upload: %v", name, j, err)
							return
						}
						continue
					}
					errs <- fmt.Errorf("%s job %d: %v", name, j, err)
					return
				}
				for k := range accs {
					if !sameCiphertext(accs[k], bt.BlindRotateOne(lwes[k])) {
						errs <- fmt.Errorf("%s job %d acc %d differs from local rotation under key churn", name, j, k)
						return
					}
				}
			}
		}(ti)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if evicted := srv.Metrics().Counter(obs.CounterKeysEvicted); evicted == 0 {
		t.Fatal("no evictions with 3 tenants in a 2-key budget; the churn never churned")
	}
}
