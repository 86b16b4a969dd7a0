package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"runtime"
	"testing"
	"time"

	"heap"
	"heap/internal/ckks"
	"heap/internal/cluster"
	"heap/internal/core"
	"heap/internal/ring"
	"heap/internal/rlwe"
	"heap/internal/serve"
)

// buildTenant constructs a tenant-side engine at the same public parameter
// set as the daemon's test scale, with its own secret/evaluation keys.
func buildTenant(t *testing.T, seed uint64) *core.Bootstrapper {
	t.Helper()
	cfg := heap.TestContextConfig()
	q := ring.GenerateNTTPrimes(cfg.LimbBits, cfg.LogN, cfg.Limbs)
	p := ring.GenerateNTTPrimesUp(cfg.LimbBits+1, cfg.LogN, cfg.PLimbs)
	params, err := ckks.NewParameters(cfg.LogN, q, p, ring.DefaultSigma, cfg.Dnum,
		float64(uint64(1)<<cfg.LogScale), cfg.Slots)
	if err != nil {
		t.Fatal(err)
	}
	kg := rlwe.NewKeyGenerator(params.Parameters, seed)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	bt, err := core.NewBootstrapper(params, kg, sk, cfg.Bootstrap)
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

func syntheticLWE(dim int, twoN uint64, seed uint64) *rlwe.LWECiphertext {
	s := ring.NewSampler(seed)
	lwe := &rlwe.LWECiphertext{A: make([]uint64, dim), Q: twoN}
	for i := range lwe.A {
		lwe.A[i] = 1 + s.UniformMod(twoN-1)
	}
	lwe.B = s.UniformMod(twoN)
	return lwe
}

// TestDaemonServeShutdownNoLeak boots a real daemon on ephemeral TCP ports,
// drives it as a tenant (key upload + rotations, verified bit-exact),
// checks the /metrics ledger is consistent at quiesce (admitted = served +
// expired + failed = queue_wait_ms observations, queue empty), shuts down,
// and requires the goroutine count to return to the pre-daemon baseline —
// listener loop, executor, coalescer, per-connection handlers, and the
// metrics HTTP server all exit.
func TestDaemonServeShutdownNoLeak(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon round trips are slow")
	}
	before := runtime.NumGoroutine()
	d, err := startDaemon(daemonConfig{
		addr:        "127.0.0.1:0",
		metricsAddr: "127.0.0.1:0",
		scale:       "test",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	shutdown := d.Shutdown
	defer func() {
		if shutdown != nil {
			shutdown()
		}
	}()

	tenant := buildTenant(t, 777)
	conn, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := serve.NewClient(conn, tenant, "leaky", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.UploadKey(0, time.Minute); err != nil {
		t.Fatal(err)
	}
	dim := cluster.LWEDim(tenant)
	twoN := uint64(2 * tenant.Params.N())
	for j := 0; j < 3; j++ {
		lwes := []*rlwe.LWECiphertext{
			syntheticLWE(dim, twoN, uint64(100+j)),
			syntheticLWE(dim, twoN, uint64(200+j)),
		}
		accs, err := cl.Rotate(lwes, 0)
		if err != nil {
			t.Fatalf("job %d: %v", j, err)
		}
		for k := range accs {
			ref := tenant.BlindRotateOne(lwes[k])
			same := true
			for i := range ref.C0.Limbs {
				for x := range ref.C0.Limbs[i] {
					if accs[k].C0.Limbs[i][x] != ref.C0.Limbs[i][x] || accs[k].C1.Limbs[i][x] != ref.C1.Limbs[i][x] {
						same = false
					}
				}
			}
			if !same {
				t.Fatalf("job %d acc %d differs from local rotation", j, k)
			}
		}
	}

	// Ledger consistency over the real /metrics endpoint at quiesce:
	// admitted = served + expired + failed and nothing left in the queue.
	snap, err := fetchLedger(d.MetricsAddr())
	if err != nil {
		t.Fatal(err)
	}
	adm := snap.Server.Counters["jobs_admitted"]
	done := snap.Server.Counters["jobs_served"] + snap.Server.Counters["jobs_expired"] + snap.Server.Counters["jobs_failed"]
	if adm != 3 || done != 3 {
		t.Fatalf("metrics ledger inconsistent at quiesce: admitted %d, terminal %d (%v)", adm, done, snap.Server.Counters)
	}
	if snap.QueueDepth != 0 {
		t.Fatalf("queue depth %d at quiesce", snap.QueueDepth)
	}
	// Every admitted job is dispatched exactly once, whatever becomes of it.
	// batch_ms is observed after the batch's last frame, so the third batch
	// may not have landed yet; the first two have.
	if snap.QueueWaitMs.Count != adm {
		t.Fatalf("queue_wait_ms holds %d observations for %d admitted jobs", snap.QueueWaitMs.Count, adm)
	}
	if snap.BatchMs.Count < 2 || snap.BatchMs.P50Ms <= 0 {
		t.Fatalf("batch_ms = %+v after three sequential jobs", snap.BatchMs)
	}
	if ts, ok := snap.Tenants["leaky"]; !ok || ts.Admitted != ts.Jobs+ts.Expired+ts.Failed {
		t.Fatalf("tenant ledger inconsistent: %+v", snap.Tenants)
	}

	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	shutdown()
	shutdown = nil
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()

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

// fetchLedger polls /metrics until the job ledger settles (the server
// credits a served job just after the client's BatchEnd), then returns the
// decoded snapshot.
func fetchLedger(addr string) (serve.ServiceSnapshot, error) {
	var snap serve.ServiceSnapshot
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			return snap, err
		}
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			return snap, err
		}
		adm := snap.Server.Counters["jobs_admitted"]
		done := snap.Server.Counters["jobs_served"] + snap.Server.Counters["jobs_expired"] + snap.Server.Counters["jobs_failed"]
		if (adm == done && snap.QueueDepth == 0) || time.Now().After(deadline) {
			return snap, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDaemonWidthIsEveryCore: the daemon's one executor fans each batch over
// its bootstrapper's Cfg.Workers, which heapd sets to GOMAXPROCS at start —
// whatever the scale's context config says.
func TestDaemonWidthIsEveryCore(t *testing.T) {
	for _, procs := range []int{runtime.GOMAXPROCS(0), 3} {
		prev := runtime.GOMAXPROCS(procs)
		boot, err := buildBootstrapper("test")
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if boot.Cfg.Workers != procs {
			t.Fatalf("GOMAXPROCS %d: the daemon's bootstrapper has Workers = %d", procs, boot.Cfg.Workers)
		}
	}
}

// TestDaemonPaperScaleHoldsNoKey: the daemon's engine at the paper ring is
// key-free — no blind-rotate, LWE key-switching or packing key — since tenant
// keys live in the registry and Prepare and Finish run on the tenant.
func TestDaemonPaperScaleHoldsNoKey(t *testing.T) {
	boot, err := buildBootstrapper("paper")
	if err != nil {
		t.Fatal(err)
	}
	if kb := boot.KeyBytes(); kb != (core.KeyBytes{}) {
		t.Fatalf("heapd's paper-scale engine holds keys: %v", kb)
	}
}

// TestDaemonRejectsUnknownScale: configuration errors surface before any
// listener binds.
func TestDaemonRejectsUnknownScale(t *testing.T) {
	if _, err := startDaemon(daemonConfig{addr: "127.0.0.1:0", scale: "nope"}, io.Discard); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

// TestDaemonAdmissionFlagsReachServer: a daemon with a 1-job/s, burst-1
// token bucket rate-limits a burst of back-to-back jobs non-fatally over
// real TCP — the flag plumbing reaches admission, and the connection
// survives to serve again.
func TestDaemonAdmissionFlagsReachServer(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon round trips are slow")
	}
	d, err := startDaemon(daemonConfig{
		addr:  "127.0.0.1:0",
		scale: "test",
		rate:  1,
		burst: 1,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()

	tenant := buildTenant(t, 888)
	conn, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := serve.NewClient(conn, tenant, "limited", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.UploadKey(0, time.Minute); err != nil {
		t.Fatal(err)
	}
	dim := cluster.LWEDim(tenant)
	twoN := uint64(2 * tenant.Params.N())
	job := []*rlwe.LWECiphertext{syntheticLWE(dim, twoN, 42)}

	if _, err := cl.Rotate(job, 0); err != nil {
		t.Fatalf("first job (burst token): %v", err)
	}
	var limited bool
	for i := 0; i < 3; i++ {
		_, err := cl.Rotate(job, 0)
		if rej, ok := err.(*serve.RejectedError); ok && rej.IsRateLimited() {
			limited = true
			break
		}
		if err != nil {
			t.Fatalf("burst job %d: unexpected error %v", i, err)
		}
	}
	if !limited {
		t.Fatal("4 back-to-back jobs at rate 1/s burst 1 never rate-limited")
	}
	// The bucket refills on wall time; the same connection must serve again.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := cl.Rotate(job, 0); err == nil {
			return
		} else if rej, ok := err.(*serve.RejectedError); !ok || !rej.IsRateLimited() {
			t.Fatalf("retry after rate limit: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("bucket never refilled")
		}
		time.Sleep(200 * time.Millisecond)
	}
}
