package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/cmplx"
	"net"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heap/internal/ckks"
	"heap/internal/cluster"
	"heap/internal/core"
	"heap/internal/obs"
	"heap/internal/ring"
	"heap/internal/rlwe"
	"heap/internal/tfhe"
)

// buildBoot constructs one party at the small ring the cluster tests use.
// Every party derives the identical public parameter set; only the key
// material differs by seed, so a cold server and full tenants interoperate.
// A cold server holds no secret, so it comes with no client.
func buildBoot(t *testing.T, seed uint64, cold bool) (*ckks.Parameters, *ckks.Client, *core.Bootstrapper) {
	t.Helper()
	logN := 6
	q := ring.GenerateNTTPrimes(30, logN, 3)
	p := ring.GenerateNTTPrimesUp(31, logN, 2)
	params := ckks.MustParameters(logN, q, p, ring.DefaultSigma, 2, float64(uint64(1)<<28), 1<<(logN-1))
	var (
		kg *rlwe.KeyGenerator
		sk *rlwe.SecretKey
		cl *ckks.Client
	)
	if !cold {
		kg = rlwe.NewKeyGenerator(params.Parameters, seed)
		sk = kg.GenSecretKey(rlwe.SecretTernary)
		cl = ckks.NewClient(params, sk, seed+1)
	}
	cfg := core.DefaultConfig()
	cfg.NT = 0
	cfg.Workers = 1
	cfg.ColdStart = cold
	bt, err := core.NewBootstrapper(params, kg, sk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return params, cl, bt
}

// pipeListener is an in-memory net.Listener: every Dial produces a
// net.Pipe whose far end comes out of Accept.
type pipeListener struct {
	ch     chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{ch: make(chan net.Conn), closed: make(chan struct{})}
}

// Dial connects a new pipe through the listener, returning the client end.
func (l *pipeListener) Dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.ch <- server:
		return client, nil
	case <-l.closed:
		_ = client.Close()
		_ = server.Close()
		return nil, errors.New("serve: listener closed")
	}
}

// Accept returns the server end of the next dialed pipe.
func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.closed:
		return nil, errors.New("serve: listener closed")
	}
}

// Close unblocks Accept and fails future Dials.
func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// startServer runs srv over an in-memory listener and returns a dialer plus
// a full teardown (drain server, close listener).
func startServer(t *testing.T, srv *Server) (*pipeListener, func()) {
	t.Helper()
	l := newPipeListener()
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(l)
	}()
	return l, func() {
		_ = l.Close()
		<-served
		srv.Close()
	}
}

func dialClient(t *testing.T, l *pipeListener, bt *core.Bootstrapper, tenant string) *Client {
	t.Helper()
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(conn, bt, tenant, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func assertNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func sameCiphertext(a, b *rlwe.Ciphertext) bool {
	for i := range a.C0.Limbs {
		for j := range a.C0.Limbs[i] {
			if a.C0.Limbs[i][j] != b.C0.Limbs[i][j] || a.C1.Limbs[i][j] != b.C1.Limbs[i][j] {
				return false
			}
		}
	}
	return true
}

// plug holds a server's executor at a point the test controls: a job for
// the tenant "plug", which has no uploaded key, parks the executor in its key
// lookup until release is closed; the lookup then refuses the key, so the
// plug job is rejected without ever counting as a batch.
type plug struct {
	entered, release chan struct{}
}

// newPlug installs a plug on srv, which must not have served a connection
// yet.
func newPlug(srv *Server) *plug {
	p := &plug{entered: make(chan struct{}), release: make(chan struct{})}
	acquire := srv.acquire
	srv.acquire = func(tenant string) (*tfhe.BlindRotateKey, func(), error) {
		if tenant == "plug" {
			close(p.entered)
			<-p.release
		}
		return acquire(tenant)
	}
	return p
}

// TestServiceCoalescesAcrossConnections is the acceptance test: two tenants,
// each with two concurrent connections submitting same-key jobs while the
// server's single executor is busy. The server must execute each tenant's
// pair as ONE key-major batch (counted by jobs_coalesced and serve_batches),
// stream strictly less BRK traffic than the same four jobs run sequentially,
// and return per-job accumulators bit-identical to both the sequential
// service run and the tenant's own local rotations.
func TestServiceCoalescesAcrossConnections(t *testing.T) {
	if testing.Short() {
		t.Skip("full service round trips are slow")
	}
	before := runtime.NumGoroutine()
	_, _, serverBt := buildBoot(t, 50, true)
	// Tile 8 with 4-rotation jobs on one worker: a coalesced pair fills ONE tile (one BRK
	// pass), while the same two jobs run separately take a tile pass each —
	// the traffic assertion below measures exactly that.
	srv := NewServer(serverBt, Config{})
	pl := newPlug(srv)
	l, stop := startServer(t, srv)

	const (
		tenants    = 2
		connsPer   = 2
		rotsPerJob = 4
	)
	type tenantFix struct {
		name    string
		bt      *core.Bootstrapper
		clients []*Client
		lwes    [][]*rlwe.LWECiphertext // one job per client
	}
	fixes := make([]*tenantFix, tenants)
	for ti := range fixes {
		_, cl, bt := buildBoot(t, uint64(60+10*ti), false)
		fx := &tenantFix{name: string(rune('A' + ti)), bt: bt}
		for c := 0; c < connsPer; c++ {
			fx.clients = append(fx.clients, dialClient(t, l, bt, fx.name))
			v := make([]complex128, bt.Params.Slots)
			for i := range v {
				v[i] = complex(0.1*float64(ti+1), 0.05*float64(c+i%3))
			}
			prep := bt.PrepareSparse(cl.EncryptAtLevel(v, 1), rotsPerJob)
			fx.lwes = append(fx.lwes, prep.LWEs)
		}
		if err := fx.clients[0].UploadKey(0, time.Minute); err != nil {
			t.Fatalf("tenant %s key upload: %v", fx.name, err)
		}
		fixes[ti] = fx
	}

	// Phase 1: all four jobs queue behind the plug — the executor is held
	// until QueueDepth shows every one of them admitted — and come out as one
	// pool per tenant.
	plugCl := dialClient(t, l, fixes[0].bt, "plug")
	plugged := make(chan error, 1)
	go func() {
		_, err := plugCl.Rotate(syntheticJob(cluster.LWEDim(serverBt), uint64(2*serverBt.Params.N()), 1), 0)
		plugged <- err
	}()
	<-pl.entered
	phase1 := make([][][]*rlwe.Ciphertext, tenants)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for ti, fx := range fixes {
		phase1[ti] = make([][]*rlwe.Ciphertext, connsPer)
		for c := range fx.clients {
			wg.Add(1)
			go func(ti, c int, fx *tenantFix) {
				defer wg.Done()
				accs, err := fx.clients[c].Rotate(fx.lwes[c], 0)
				mu.Lock()
				defer mu.Unlock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				phase1[ti][c] = accs
			}(ti, c, fx)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); srv.QueueDepth() != tenants*connsPer; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want %d jobs waiting behind the plug", srv.QueueDepth(), tenants*connsPer)
		}
	}
	close(pl.release)
	var rej *RejectedError
	if err := <-plugged; !errors.As(err, &rej) {
		t.Fatalf("plug job: want a no-key rejection, got %v", err)
	}
	_ = plugCl.Close()
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	met := srv.Metrics()
	if got := met.Counter(obs.CounterJobsCoalesced); got != tenants*connsPer {
		t.Fatalf("jobs_coalesced = %d, want %d (every job should share a batch)", got, tenants*connsPer)
	}
	if got := met.Counter(obs.CounterServeBatches); got != tenants {
		t.Fatalf("serve_batches = %d, want %d (one key-major batch per tenant)", got, tenants)
	}
	brkCoalesced := met.Counter(obs.CounterBRKBytesStreamed)
	if brkCoalesced == 0 {
		t.Fatal("no BRK traffic recorded for the coalesced batches")
	}

	// Phase 2: the identical four jobs, one at a time. Same rotations, but
	// four batches — the BRK now streams once per job instead of once per
	// tenant pair.
	for ti, fx := range fixes {
		for c := range fx.clients {
			accs, err := fx.clients[c].Rotate(fx.lwes[c], 0)
			if err != nil {
				t.Fatal(err)
			}
			for k := range accs {
				if !sameCiphertext(accs[k], phase1[ti][c][k]) {
					t.Fatalf("tenant %s conn %d acc %d: coalesced result differs from sequential", fx.name, c, k)
				}
			}
		}
	}
	if got := met.Counter(obs.CounterServeBatches); got != tenants+tenants*connsPer {
		t.Fatalf("serve_batches = %d after sequential phase, want %d", got, tenants+tenants*connsPer)
	}
	if got := met.Counter(obs.CounterJobsCoalesced); got != tenants*connsPer {
		t.Fatalf("jobs_coalesced grew to %d during the sequential phase; single-job batches must not count", got)
	}
	brkSequential := met.Counter(obs.CounterBRKBytesStreamed) - brkCoalesced
	if brkCoalesced >= brkSequential {
		t.Fatalf("coalesced BRK traffic %d >= sequential %d: key-major batching saved nothing", brkCoalesced, brkSequential)
	}

	// The service must match the tenant's own local rotations bit for bit:
	// blind rotation is deterministic in (lwe, lut, brk), and the server's
	// LUT is params-only.
	for ti, fx := range fixes {
		for c := range fx.clients {
			for k, lwe := range fx.lwes[c] {
				ref := fx.bt.BlindRotateOne(lwe)
				if !sameCiphertext(ref, phase1[ti][c][k]) {
					t.Fatalf("tenant %s conn %d acc %d: service result differs from local rotation", fx.name, c, k)
				}
			}
		}
	}

	// Per-tenant ledgers.
	snap := srv.Snapshot()
	for _, fx := range fixes {
		ts, ok := snap.Tenants[fx.name]
		if !ok {
			t.Fatalf("tenant %s missing from snapshot", fx.name)
		}
		wantJobs := uint64(2 * connsPer) // both phases
		if ts.Admitted != wantJobs || ts.Jobs != wantJobs || ts.Rejected != 0 {
			t.Fatalf("tenant %s ledger = %+v, want %d admitted/served", fx.name, ts, wantJobs)
		}
		if ts.Coalesced != connsPer {
			t.Fatalf("tenant %s coalesced = %d, want %d", fx.name, ts.Coalesced, connsPer)
		}
	}

	for _, fx := range fixes {
		for _, cl := range fx.clients {
			_ = cl.Close()
		}
	}
	stop()
	assertNoGoroutineLeak(t, before)
}

// TestServiceBootstrapBitExact runs the full offload path — Prepare locally,
// rotate remotely, Finish locally — and checks it against the tenant's
// purely local bootstrap bit for bit, then decrypts.
func TestServiceBootstrapBitExact(t *testing.T) {
	if testing.Short() {
		t.Skip("full bootstrap round trip is slow")
	}
	_, _, serverBt := buildBoot(t, 50, true)
	srv := NewServer(serverBt, Config{})
	l, stop := startServer(t, srv)
	defer stop()

	params, cl, bt := buildBoot(t, 70, false)
	client := dialClient(t, l, bt, "tenant-solo")
	defer client.Close()
	if err := client.UploadKey(0, time.Minute); err != nil {
		t.Fatal(err)
	}

	v := make([]complex128, params.Slots)
	for i := range v {
		v[i] = complex(0.3*float64(i%5)/5, -0.15*float64(i%4)/4)
	}
	ct := cl.EncryptAtLevel(v, 1)
	local := bt.Bootstrap(ct.CopyNew())
	remote, err := client.Bootstrap(ct.CopyNew(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCiphertext(local, remote) {
		t.Fatal("service bootstrap differs from local bootstrap")
	}
	got := cl.Decrypt(remote)
	for i := range v {
		if e := cmplx.Abs(got[i] - v[i]); e > 1e-2 {
			t.Fatalf("slot %d: %v want %v", i, got[i], v[i])
		}
	}
}

// syntheticJob builds one dense dim-sized LWE (cheap admission-test payload;
// the rotation it triggers is real but tiny).
func syntheticJob(dim int, twoN uint64, seed uint64) []*rlwe.LWECiphertext {
	s := ring.NewSampler(seed)
	lwe := &rlwe.LWECiphertext{A: make([]uint64, dim), Q: twoN}
	for i := range lwe.A {
		lwe.A[i] = 1 + s.UniformMod(twoN-1)
	}
	lwe.B = s.UniformMod(twoN)
	return []*rlwe.LWECiphertext{lwe}
}

// TestServiceAdmissionIsolatesTenants: a tenant that exhausts its token
// bucket is rejected non-fatally while a second tenant on the same server
// keeps being served — per-tenant buckets, shared nothing.
func TestServiceAdmissionIsolatesTenants(t *testing.T) {
	_, _, serverBt := buildBoot(t, 50, true)
	srv := NewServer(serverBt, Config{Admission: AdmissionConfig{RatePerSec: 0.0001, Burst: 2}})
	l, stop := startServer(t, srv)
	defer stop()

	dim := cluster.LWEDim(serverBt)
	twoN := uint64(2 * serverBt.Params.N())

	_, _, btA := buildBoot(t, 60, false)
	_, _, btB := buildBoot(t, 70, false)
	clA := dialClient(t, l, btA, "A")
	defer clA.Close()
	clB := dialClient(t, l, btB, "B")
	defer clB.Close()
	if err := clA.UploadKey(0, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := clB.UploadKey(0, time.Minute); err != nil {
		t.Fatal(err)
	}

	// Burst of 2: jobs 1 and 2 are served, job 3 bounces off the bucket.
	for i := 0; i < 2; i++ {
		if _, err := clA.Rotate(syntheticJob(dim, twoN, uint64(100+i)), 0); err != nil {
			t.Fatalf("tenant A job %d: %v", i+1, err)
		}
	}
	_, err := clA.Rotate(syntheticJob(dim, twoN, 102), 0)
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("tenant A job 3: want RejectedError, got %v", err)
	}
	if !rej.IsRateLimited() {
		t.Fatalf("tenant A job 3: want a rate-limit rejection, got %q", rej.Reason)
	}

	// The connection survives the rejection AND tenant B is untouched.
	for i := 0; i < 2; i++ {
		if _, err := clB.Rotate(syntheticJob(dim, twoN, uint64(200+i)), 0); err != nil {
			t.Fatalf("tenant B job %d after A's rejection: %v", i+1, err)
		}
	}
	_, err = clA.Rotate(syntheticJob(dim, twoN, 103), 0)
	if !errors.As(err, &rej) {
		t.Fatalf("tenant A stays rate-limited on a live conn, got %v", err)
	}

	snap := srv.Snapshot()
	if a := snap.Tenants["A"]; a.Admitted != 2 || a.Rejected != 2 {
		t.Fatalf("tenant A ledger = %+v, want 2 admitted / 2 rejected", a)
	}
	if b := snap.Tenants["B"]; b.Admitted != 2 || b.Rejected != 0 {
		t.Fatalf("tenant B ledger = %+v, want 2 admitted / 0 rejected", b)
	}
	if got := srv.Metrics().Counter(obs.CounterJobsRejected); got != 2 {
		t.Fatalf("jobs_rejected = %d, want 2", got)
	}
}

// TestServiceDeadlineRejectedAtDoor: a budget below the projected wait (the
// batch EWMA, once a served batch has primed it) is refused before queueing,
// not left to expire.
func TestServiceDeadlineRejectedAtDoor(t *testing.T) {
	_, _, serverBt := buildBoot(t, 50, true)
	srv := NewServer(serverBt, Config{})
	l, stop := startServer(t, srv)
	defer stop()

	_, _, bt := buildBoot(t, 60, false)
	cl := dialClient(t, l, bt, "deadline-tenant")
	defer cl.Close()
	if err := cl.UploadKey(0, time.Minute); err != nil {
		t.Fatal(err)
	}

	dim := cluster.LWEDim(serverBt)
	twoN := uint64(2 * serverBt.Params.N())
	// One rotation at this ring takes ~2.5 ms, so an 8-rotation primer puts
	// the EWMA well past the 1 ms budget on any host; the EWMA is updated
	// before the primer's last frame is sent.
	var primer []*rlwe.LWECiphertext
	for k := 0; k < 8; k++ {
		primer = append(primer, syntheticJob(dim, twoN, uint64(k))...)
	}
	if _, err := cl.Rotate(primer, 0); err != nil {
		t.Fatal(err)
	}
	if ewma := srv.Snapshot().EWMABatchMs; ewma <= 1 {
		t.Fatalf("a %d-rotation primer left the batch EWMA at %.3f ms; the 1 ms budget below would be admitted", len(primer), ewma)
	}
	_, err := cl.Rotate(syntheticJob(dim, twoN, 1), time.Millisecond)
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("want RejectedError for a 1ms budget under a primed EWMA, got %v", err)
	}
	if rej.IsRateLimited() || !strings.Contains(rej.Reason, ErrDeadline.Error()) {
		t.Fatalf("rejection should be the deadline check, got %q", rej.Reason)
	}
	// The refused job died at the door: only the primer was ever admitted.
	if got := srv.Metrics().Counter(obs.CounterJobsAdmitted); got != 1 {
		t.Fatalf("jobs_admitted = %d, want 1", got)
	}
}

// rotateRaw is Client.Rotate with the reply stream in view: it returns the
// accumulators by index and the order the indices arrived in, and fails
// unless the stream's sequence numbers count up from zero in arrival order —
// what execBatch owes each connection however its tiles interleave.
func rotateRaw(cl *Client, id uint32, lwes []*rlwe.LWECiphertext) ([]*rlwe.Ciphertext, []int, error) {
	idxs := make([]int, len(lwes))
	for i := range idxs {
		idxs[i] = i
	}
	payload, err := cluster.EncodeBatch(idxs, lwes)
	if err != nil {
		return nil, nil, err
	}
	if err := cluster.WriteFrame(cl.conn, &cluster.Frame{Kind: cluster.FrameBatch, Shard: id, Payload: payload}); err != nil {
		return nil, nil, err
	}
	accs := make([]*rlwe.Ciphertext, len(lwes))
	var order []int
	for {
		f, err := cluster.ReadFrame(cl.conn, cluster.AccPayloadBound(cl.boot.Params.Parameters))
		if err != nil {
			return nil, nil, err
		}
		if f.Shard != id || f.Seq != uint32(len(order)) {
			return nil, nil, fmt.Errorf("frame kind %#x for job %d seq %d, want job %d seq %d", f.Kind, f.Shard, f.Seq, id, len(order))
		}
		switch f.Kind {
		case cluster.FrameAcc:
			idx, acc, err := cluster.DecodeAcc(f.Payload, cl.boot.Params.Parameters, len(lwes))
			if err != nil {
				return nil, nil, err
			}
			if accs[idx] != nil {
				return nil, nil, fmt.Errorf("job %d: accumulator %d sent twice", id, idx)
			}
			accs[idx] = acc
			order = append(order, idx)
		case cluster.FrameBatchEnd:
			if len(order) != len(lwes) {
				return nil, nil, fmt.Errorf("job %d ended after %d/%d accumulators", id, len(order), len(lwes))
			}
			return accs, order, nil
		default:
			return nil, nil, fmt.Errorf("job %d: unexpected frame kind %#x: %s", id, f.Kind, f.Payload)
		}
	}
}

// TestServiceMultiWorkerTilesReassemble covers the path every other serve
// test pins shut with a one-worker bootstrapper: the executor fanning
// single-rotation tiles over many workers — as many as the largest batch the
// closed loop can pool has rotations, so every tile is one rotation
// (effective tile ⌈n/workers⌉ = 1) — three connections of one tenant, so
// tiles of one job — and of pooled jobs on different connections — finish
// and write back concurrently. Each job leads with a dense rotation and
// follows with near-empty masks that cost almost nothing, so with more than
// one P the later indices overtake index 0. Whatever order the tiles finish
// in, every reply stream must number its frames in send order, deliver each
// index once, and match the tenant's own BlindRotateOne bit for bit. Run
// under -race at -cpu 1,2,4 by `make race`.
func TestServiceMultiWorkerTilesReassemble(t *testing.T) {
	const (
		conns      = 3
		jobsPer    = 4
		rotsPerJob = 6
	)
	_, _, serverBt := buildBoot(t, 50, true)
	serverBt.Cfg.Workers = conns * rotsPerJob
	srv := NewServer(serverBt, Config{})
	l, stop := startServer(t, srv)
	defer stop()

	_, _, bt := buildBoot(t, 60, false)
	dim := cluster.LWEDim(serverBt)
	twoN := uint64(2 * serverBt.Params.N())
	clients := make([]*Client, conns)
	for c := range clients {
		clients[c] = dialClient(t, l, bt, "fan")
		defer clients[c].Close()
	}
	if err := clients[0].UploadKey(0, time.Minute); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var overtaken atomic.Int64
	for c, cl := range clients {
		wg.Add(1)
		go func(c int, cl *Client) {
			defer wg.Done()
			for j := 0; j < jobsPer; j++ {
				seed := uint64(1000*c + 10*j)
				lwes := syntheticJob(dim, twoN, seed)
				for k := 1; k < rotsPerJob; k++ {
					light := &rlwe.LWECiphertext{A: make([]uint64, dim), B: uint64(k), Q: twoN}
					light.A[(c+j+k)%dim] = uint64(1 + k)
					lwes = append(lwes, light)
				}
				accs, order, err := rotateRaw(cl, uint32(j+1), lwes)
				if err != nil {
					t.Errorf("conn %d job %d: %v", c, j, err)
					return
				}
				for k, lwe := range lwes {
					if !sameCiphertext(accs[k], bt.BlindRotateOne(lwe)) {
						t.Errorf("conn %d job %d acc %d differs from local BlindRotateOne (arrival order %v)", c, j, k, order)
						return
					}
				}
				if !sort.IntsAreSorted(order) {
					overtaken.Add(1)
				}
			}
		}(c, cl)
	}
	wg.Wait()
	t.Logf("%d of %d jobs had accumulators arrive out of index order (GOMAXPROCS %d)",
		overtaken.Load(), conns*jobsPer, runtime.GOMAXPROCS(0))

	snap := srv.Snapshot()
	if ts := snap.Tenants["fan"]; ts.Admitted != conns*jobsPer || ts.Rejected != 0 || ts.Failed != 0 {
		t.Fatalf("tenant ledger = %+v, want %d admitted and nothing refused", ts, conns*jobsPer)
	}
	if got := srv.Metrics().Counter(obs.CounterBlindRotateTile); got != conns*jobsPer*rotsPerJob {
		t.Fatalf("blind_rotate_tiles = %d, want one per rotation (%d)", got, conns*jobsPer*rotsPerJob)
	}
	if snap.QueueWaitMs.Count != conns*jobsPer {
		t.Fatalf("queue_wait_ms holds %d observations for %d admitted jobs", snap.QueueWaitMs.Count, conns*jobsPer)
	}
}

// laneBarrier records the shard lanes BlindRotate spans begin on, and
// holds each one until want distinct lanes have begun — or a deadline has
// passed — so a batch's lane count does not depend on the scheduler: a
// worker cannot take a second tile before every worker has its first.
type laneBarrier struct {
	obs.Nop
	want  int
	mu    sync.Mutex
	lanes map[int]bool
	all   chan struct{}
}

func newLaneBarrier(want int) *laneBarrier {
	return &laneBarrier{want: want, lanes: make(map[int]bool), all: make(chan struct{})}
}

func (b *laneBarrier) Begin(s obs.Stage, lane int) obs.Token {
	if s != obs.StageBlindRotate || lane == obs.LanePipeline {
		return 0
	}
	b.mu.Lock()
	if !b.lanes[lane] {
		b.lanes[lane] = true
		if len(b.lanes) == b.want {
			close(b.all)
		}
	}
	b.mu.Unlock()
	select {
	case <-b.all:
	case <-time.After(10 * time.Second):
	}
	return 0
}

func (b *laneBarrier) count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.lanes)
}

// TestServerWidthIsTheBootstrappers: a server has no width of its own — it
// fans each batch over its bootstrapper's Cfg.Workers. A batch of 12
// rotations at width w runs in tiles of min(Tile, ⌈12/w⌉) and records its
// BlindRotate spans on min(w, tiles) shard lanes: fewer workers would leave
// the barrier shut until its deadline and a lane short, more would add lanes
// past it.
func TestServerWidthIsTheBootstrappers(t *testing.T) {
	const rots = 12
	_, _, bt := buildBoot(t, 60, false)
	for _, w := range []int{1, 2, 16} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			_, _, serverBt := buildBoot(t, 50, true)
			serverBt.Cfg.Workers = w
			srv := NewServer(serverBt, Config{})
			tile := min(tfhe.Tile, (rots+w-1)/w)
			want := min(w, (rots+tile-1)/tile)
			lanes := newLaneBarrier(want)
			serverBt.SetRecorder(obs.Combine(srv.met, lanes))
			l, stop := startServer(t, srv)
			defer stop()
			cl := dialClient(t, l, bt, "wide")
			defer cl.Close()
			if err := cl.UploadKey(0, time.Minute); err != nil {
				t.Fatal(err)
			}
			job := jobOf(cluster.LWEDim(serverBt), uint64(2*serverBt.Params.N()), 500, rots)
			accs, err := cl.Rotate(job, 0)
			if err != nil {
				t.Fatal(err)
			}
			for k, lwe := range job {
				if !sameCiphertext(accs[k], bt.BlindRotateOne(lwe)) {
					t.Fatalf("acc %d differs from the tenant's own rotation", k)
				}
			}
			if got := lanes.count(); got != want {
				t.Fatalf("the batch ran on %d lanes, want min(%d workers, %d tiles) = %d", got, w, (rots+tile-1)/tile, want)
			}
		})
	}
}

// TestMetricsHandlerServesSnapshot exercises the /metrics endpoint shape, and
// that key_bytes is the registry's resident bytes — the warm key NewServer
// registered, the sum of the per-tenant entries.
func TestMetricsHandlerServesSnapshot(t *testing.T) {
	_, _, serverBt := buildBoot(t, 50, false)
	srv := NewServer(serverBt, Config{})
	rr := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	body := rr.Body.String()
	for _, want := range []string{`"server"`, `"tenants"`, `"registry"`, `"key_bytes"`, `"queue_depth"`, `"ewma_batch_ms"`, `"queue_wait_ms"`, `"batch_ms"`, `"p99_ms"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics body missing %s:\n%s", want, body)
		}
	}
	var snap ServiceSnapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, e := range snap.Registry {
		sum += e.Bytes
	}
	if want := int64(serverBt.BlindRotateKey().SizeBytes()); snap.KeyBytes != want || sum != want {
		t.Fatalf("key_bytes %d, registry entries sum to %d, want the warm key's %d", snap.KeyBytes, sum, want)
	}
}

// Bootstrap refreshes ct through the service: Prepare locally, ship the
// blind rotations, Finish locally. Bit-identical to boot.Bootstrap(ct) —
// the server computes the same deterministic rotations under the same key.
func (c *Client) Bootstrap(ct *rlwe.Ciphertext, budget time.Duration) (*rlwe.Ciphertext, error) {
	prep := c.boot.Prepare(ct)
	accs, err := c.Rotate(prep.LWEs, budget)
	if err != nil {
		return nil, err
	}
	return c.boot.Finish(prep, accs)
}

// QueueDepth reports the jobs currently admitted but not yet dispatched —
// the level the overload tests sample to prove admission keeps the queue
// bounded (Snapshot carries the same figure, but building a full snapshot
// per sample is too heavy for a sub-millisecond sampler).
func (s *Server) QueueDepth() int { return s.adm.depth() }
