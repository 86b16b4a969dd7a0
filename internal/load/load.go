// Package load is the serving layer's load harness: it drives a full
// in-process bootstrap service (internal/serve: frame protocol, tenant key
// registry, admission control, cross-connection coalescing, key-major batch
// executors) end to end through the real serve.Client, under configurable
// arrival processes, and reports the scaling numbers every parallel-feature
// claim in this repository should come with — achieved jobs/s vs offered
// load, per-job latency percentiles from a lock-free histogram, admission
// rejection rates, and the coalescing efficiency read back from the obs
// counters.
//
// Two drive modes:
//
//   - Closed loop (OfferedRate = 0): every connection keeps exactly one job
//     in flight, back to back. Throughput is the service's saturation
//     capacity at the configured concurrency; latency is the self-clocked
//     service time. This is the mode for worker/executor scaling curves.
//
//   - Open loop (OfferedRate > 0): arrivals fire on a precomputed seeded
//     schedule regardless of how the service is keeping up — the only mode
//     that can push a service past saturation, which is exactly what the
//     overload tests need. Latency is measured from the scheduled arrival
//     instant, so queueing delay (including the client-side connection
//     queue) counts, the way a real caller would experience it.
//
// Both modes are deterministic given Config.Seed: the schedule, tenant
// choices, connection choices, and payloads are all derived from one seeded
// source before the measured section starts. Combined with the virtual
// Clock (serve.Config.Now) the harness doubles as the deterministic
// concurrency test driver for the overload suite.
package load

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"heap/internal/ckks"
	"heap/internal/cluster"
	"heap/internal/core"
	"heap/internal/obs"
	"heap/internal/ring"
	"heap/internal/rlwe"
	"heap/internal/serve"
)

// Config shapes one load run. The zero value is not runnable; Jobs and (for
// open loop) OfferedRate must be set. Service-side knobs mirror
// serve.Config.
type Config struct {
	// --- service shape ---
	Tenants        int                   // distinct keys (default 2)
	ConnsPerTenant int                   // concurrent connections per tenant (default 2)
	Executors      int                   // concurrent batch executors (default 1)
	Workers        int                   // batch workers per executor (default 1)
	Tile           int                   // key-major tile (0 = engine default)
	Admission      serve.AdmissionConfig // front-door policy
	MaxKeyBytes    int64                 // registry byte budget (0 = unbounded)
	Now            func() time.Time      // virtual clock hook (nil = real time)

	// --- offered load ---
	Pattern     Pattern       // arrival pattern (default Uniform)
	Jobs        int           // total jobs to issue across the run
	RotsPerJob  int           // rotations per job (default 4)
	PayloadPool int           // distinct pre-built payloads per tenant (default 4)
	OfferedRate float64       // jobs/s across the system; 0 = closed loop
	Budget      time.Duration // per-job deadline budget (0 = unbounded)
	ZipfS       float64       // hot-key skew exponent (default 1.2)
	BurstLen    time.Duration // bursty: on-window length (default 50ms)
	GapLen      time.Duration // bursty: off-window length (default 150ms)
	Seed        uint64        // drives schedule, payloads, and tenant keys

	// --- plumbing ---
	TCP    bool // real loopback TCP instead of in-memory pipes
	Verify bool // check every served job bit-exact vs the tenant's local BlindRotateOne
	Warmup bool // run one uncounted job per tenant first (pins keys, seeds the EWMA)
}

// Result is one load point.
type Result struct {
	Pattern        string  `json:"pattern"`
	ClosedLoop     bool    `json:"closed_loop"`
	OfferedPerSec  float64 `json:"offered_jobs_per_sec"` // 0 in closed loop
	Tenants        int     `json:"tenants"`
	Conns          int     `json:"conns_per_tenant"`
	RotsPerJob     int     `json:"rot_per_job"`
	Executors      int     `json:"executors"`
	Workers        int     `json:"workers"`
	BudgetMs       float64 `json:"budget_ms,omitempty"`
	WallMs         float64 `json:"wall_ms"`
	Issued         int     `json:"issued"`
	Served         int     `json:"served"`
	Rejected       int     `json:"rejected"`
	RateLimited    int     `json:"rejected_rate_limited"`
	Failed         int     `json:"failed"`
	AchievedPerSec float64 `json:"achieved_jobs_per_sec"`
	RotPerSec      float64 `json:"rot_per_sec"`
	RejectionRate  float64 `json:"rejection_rate"`

	// Latency of served jobs only. Latency is the response time a caller
	// experiences: measured from the scheduled arrival instant in open loop
	// (client-side queueing counts), from issue in closed loop.
	// ServiceLatency is measured from the moment Rotate is issued on the
	// wire in both modes — the figure the server's deadline budget actually
	// governs, since admission cannot see a job before it arrives.
	Latency        obs.HistSnapshot `json:"latency"`
	ServiceLatency obs.HistSnapshot `json:"service_latency"`
	OverBudget     int              `json:"served_over_budget"`

	// Sampled during the run: the queue-bound proof under overload.
	MaxQueueDepth int `json:"max_queue_depth"`

	// Server-side ledger and coalescing efficiency, from the obs counters.
	Admitted       uint64  `json:"jobs_admitted"`
	Expired        uint64  `json:"jobs_expired"`
	SrvServed      uint64  `json:"jobs_served"`
	SrvFailed      uint64  `json:"jobs_failed"`
	SrvRejected    uint64  `json:"jobs_rejected"`
	Coalesced      uint64  `json:"jobs_coalesced"`
	Batches        uint64  `json:"serve_batches"`
	BRKBytes       uint64  `json:"brk_bytes_streamed"`
	CoalescedFrac  float64 `json:"coalesced_fraction"`
	BRKBytesPerRot float64 `json:"brk_bytes_per_rot"`
}

// LedgerGap returns admitted − (served + expired + failed) from the server
// counters. At quiesce (run drained, server closed) it must be zero: every
// admitted job reached exactly one terminal state.
func (r Result) LedgerGap() int64 {
	return int64(r.Admitted) - int64(r.SrvServed) - int64(r.Expired) - int64(r.SrvFailed)
}

func (cfg *Config) defaults() error {
	if cfg.Jobs <= 0 {
		return fmt.Errorf("load: Config.Jobs must be positive")
	}
	if cfg.Tenants <= 0 {
		cfg.Tenants = 2
	}
	if cfg.ConnsPerTenant <= 0 {
		cfg.ConnsPerTenant = 2
	}
	if cfg.Executors <= 0 {
		cfg.Executors = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.RotsPerJob <= 0 {
		cfg.RotsPerJob = 4
	}
	if cfg.PayloadPool <= 0 {
		cfg.PayloadPool = 4
	}
	if cfg.Pattern == "" {
		cfg.Pattern = Uniform
	}
	if cfg.BurstLen <= 0 {
		cfg.BurstLen = 50 * time.Millisecond
	}
	if cfg.GapLen <= 0 {
		cfg.GapLen = 150 * time.Millisecond
	}
	return nil
}

// benchBoot builds one party at the small ring the serve tests use (N=64,
// three 30-bit limbs): real kernels end to end, cheap enough that a sweep
// matrix finishes in CI time. The harness measures scheduling — admission,
// coalescing, executor fan-out — not kernel speed, so the small ring is the
// right instrument.
func benchBoot(seed uint64, cold bool, workers int) (*core.Bootstrapper, error) {
	logN := 6
	q := ring.GenerateNTTPrimes(30, logN, 3)
	p := ring.GenerateNTTPrimesUp(31, logN, 2)
	params := ckks.MustParameters(logN, q, p, ring.DefaultSigma, 2, float64(uint64(1)<<28), 1<<(logN-1))
	kg := rlwe.NewKeyGenerator(params.Parameters, seed)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	cfg := core.DefaultConfig()
	cfg.NT = 0
	cfg.Workers = workers
	cfg.ColdStart = cold
	return core.NewBootstrapper(params, kg, sk, cfg)
}

// Harness is one constructed service + tenant fleet, ready to drive. Build
// with NewHarness, drive with Run (or RunOn for several points against the
// same fleet), release with Close.
type Harness struct {
	cfg     Config
	srv     *serve.Server
	lis     interface{ Close() error }
	dial    func() (io.ReadWriter, error)
	served  chan struct{}
	boots   []*core.Bootstrapper // per tenant, key-warm
	clients [][]*serve.Client    // [tenant][conn]
	lwes    [][][]*rlwe.LWECiphertext
	refs    [][][]*rlwe.Ciphertext // BlindRotateOne references (Verify only)
	closed  bool
}

// NewHarness builds the service and tenant fleet for cfg: a key-cold server
// on an in-memory or TCP loopback listener, one key-warm bootstrapper per
// tenant, ConnsPerTenant live connections each, keys uploaded through the
// real chunked stream, and the seeded payload pool (plus local reference
// rotations when Verify is set).
func NewHarness(cfg Config) (*Harness, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	serverBt, err := benchBoot(cfg.Seed+1000, true, 1)
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serverBt, serve.Config{
		MaxKeyBytes: cfg.MaxKeyBytes,
		Admission:   cfg.Admission,
		Executors:   cfg.Executors,
		Tile:        cfg.Tile,
		Workers:     cfg.Workers,
		Now:         cfg.Now,
	})
	h := &Harness{cfg: cfg, srv: srv, served: make(chan struct{})}

	if cfg.TCP {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		h.lis = ln
		addr := ln.Addr().String()
		h.dial = func() (io.ReadWriter, error) { return net.Dial("tcp", addr) }
		go func() {
			defer close(h.served)
			_ = srv.Serve(cluster.ListenerFrom(ln))
		}()
	} else {
		pl := cluster.NewPipeListener()
		h.lis = pl
		h.dial = func() (io.ReadWriter, error) { return pl.Dial() }
		go func() {
			defer close(h.served)
			_ = srv.Serve(pl)
		}()
	}

	dim := cluster.LWEDim(serverBt)
	twoN := uint64(2 * serverBt.Params.N())
	payloadRng := ring.NewSampler(cfg.Seed + 2000)
	for t := 0; t < cfg.Tenants; t++ {
		bt, err := benchBoot(cfg.Seed+uint64(3000+t), false, 1)
		if err != nil {
			h.Close()
			return nil, err
		}
		h.boots = append(h.boots, bt)
		conns := make([]*serve.Client, cfg.ConnsPerTenant)
		for c := range conns {
			conn, err := h.dial()
			if err != nil {
				h.Close()
				return nil, err
			}
			cl, err := serve.NewClient(conn, bt, tenantName(t), nil)
			if err != nil {
				h.Close()
				return nil, err
			}
			conns[c] = cl
		}
		h.clients = append(h.clients, conns)
		if err := conns[0].UploadKey(0, time.Minute); err != nil {
			h.Close()
			return nil, fmt.Errorf("load: %s key upload: %w", tenantName(t), err)
		}

		// Payload pool: dense synthetic LWEs — real rotations under the
		// tenant's real key; only the plaintext is noise.
		pool := make([][]*rlwe.LWECiphertext, cfg.PayloadPool)
		for p := range pool {
			job := make([]*rlwe.LWECiphertext, cfg.RotsPerJob)
			for j := range job {
				lwe := &rlwe.LWECiphertext{A: make([]uint64, dim), Q: twoN}
				for i := range lwe.A {
					lwe.A[i] = 1 + payloadRng.UniformMod(twoN-1)
				}
				lwe.B = payloadRng.UniformMod(twoN)
				job[j] = lwe
			}
			pool[p] = job
		}
		h.lwes = append(h.lwes, pool)
		if cfg.Verify {
			refs := make([][]*rlwe.Ciphertext, cfg.PayloadPool)
			for p, job := range pool {
				refs[p] = make([]*rlwe.Ciphertext, len(job))
				for j, lwe := range job {
					refs[p][j] = bt.BlindRotateOne(lwe)
				}
			}
			h.refs = append(h.refs, refs)
		}
	}
	return h, nil
}

func tenantName(t int) string { return fmt.Sprintf("tenant-%d", t) }

// Server exposes the harness's serve.Server (metrics, snapshots).
func (h *Harness) Server() *serve.Server { return h.srv }

// Close tears the fleet down: clients, listener, then the server drain.
// Idempotent.
func (h *Harness) Close() {
	if h.closed {
		return
	}
	h.closed = true
	for _, conns := range h.clients {
		for _, cl := range conns {
			if cl != nil {
				_ = cl.Close()
			}
		}
	}
	_ = h.lis.Close()
	<-h.served
	h.srv.Close()
}

// outcome is one issued job's terminal state at the client.
type outcome struct {
	served      bool
	rejected    bool
	rateLimited bool // rejected specifically by the tenant's token bucket
	err         error
	lat         time.Duration // from the scheduled arrival (response time)
	svcLat      time.Duration // from Rotate hitting the wire (service time)
}

// drive issues one job and classifies the result. Rejections are non-fatal
// by protocol; any other error is.
func (h *Harness) drive(cl *serve.Client, tenant, payload int, issuedAt time.Time) outcome {
	t0 := time.Now()
	accs, err := cl.Rotate(h.lwes[tenant][payload], h.cfg.Budget)
	svcLat := time.Since(t0)
	lat := time.Since(issuedAt)
	if err != nil {
		if rej, ok := err.(*serve.RejectedError); ok {
			return outcome{rejected: true, rateLimited: rej.IsRateLimited(), lat: lat, svcLat: svcLat}
		}
		return outcome{err: err, lat: lat, svcLat: svcLat}
	}
	if h.cfg.Verify {
		refs := h.refs[tenant][payload]
		for k := range accs {
			if !equalCiphertext(accs[k], refs[k]) {
				return outcome{err: fmt.Errorf("load: tenant %d payload %d acc %d differs from local BlindRotateOne", tenant, payload, k)}
			}
		}
	}
	return outcome{served: true, lat: lat, svcLat: svcLat}
}

func equalCiphertext(a, b *rlwe.Ciphertext) bool {
	for i := range a.C0.Limbs {
		for j := range a.C0.Limbs[i] {
			if a.C0.Limbs[i][j] != b.C0.Limbs[i][j] || a.C1.Limbs[i][j] != b.C1.Limbs[i][j] {
				return false
			}
		}
	}
	return true
}

// Run builds a harness for cfg, drives one load point, tears down, and
// returns the point. The one-shot entry most tests use.
func Run(cfg Config) (Result, error) {
	h, err := NewHarness(cfg)
	if err != nil {
		return Result{}, err
	}
	defer h.Close()
	return h.RunPoint()
}

// RunPoint drives the configured load against the already-built fleet and
// returns the measured point. The server's counters accumulate across
// points on the same harness; RunPoint snapshots them before and after so
// the Result's ledger fields are per-point deltas.
func (h *Harness) RunPoint() (Result, error) {
	cfg := h.cfg
	met := h.srv.Metrics()
	pre := counterSet(met)

	if cfg.Warmup {
		for t := range h.clients {
			if _, err := h.clients[t][0].Rotate(h.lwes[t][0], 0); err != nil {
				return Result{}, fmt.Errorf("load: warm-up job for %s: %w", tenantName(t), err)
			}
		}
		settleLedger(met)
		pre = counterSet(met) // warm-up jobs are not part of the point
	}

	// Queue-depth sampler: proves the admission bound held for the whole
	// run (QueueLimit configured → max sampled depth ≤ limit).
	stopSampler := make(chan struct{})
	samplerDone := make(chan int)
	go func() {
		max := 0
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				samplerDone <- max
				return
			case <-tick.C:
				if d := h.srv.QueueDepth(); d > max {
					max = d
				}
			}
		}
	}()

	hist := obs.NewHist()
	svcHist := obs.NewHist()
	var (
		mu          sync.Mutex
		served      int
		rejected    int
		rateLimited int
		failed      int
		overBudget  int
		firstErr    error
	)
	record := func(o outcome) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case o.served:
			served++
			hist.Observe(o.lat)
			svcHist.Observe(o.svcLat)
			// Budget overruns count against the service time: the deadline
			// door cannot see a job before it reaches the wire.
			if cfg.Budget > 0 && o.svcLat > cfg.Budget {
				overBudget++
			}
		case o.rejected:
			rejected++
			if o.rateLimited {
				rateLimited++
			}
		default:
			failed++
			if firstErr == nil {
				firstErr = o.err
			}
		}
	}

	start := time.Now()
	var err error
	if cfg.OfferedRate > 0 {
		err = h.runOpen(start, record)
	} else {
		err = h.runClosed(record)
	}
	wall := time.Since(start)
	close(stopSampler)
	maxDepth := <-samplerDone
	if err != nil {
		return Result{}, err
	}

	// Drain to quiesce before reading the ledger: Rotate is synchronous, so
	// once every driver returned there are no in-flight jobs — but the
	// server credits a job to the served counter just AFTER writing the
	// BatchEnd frame the client returns on, so the accounting can trail the
	// drain by one scheduler beat. Settle before snapshotting.
	settleLedger(met)
	post := counterSet(met)
	res := Result{
		Pattern:        string(cfg.Pattern),
		ClosedLoop:     cfg.OfferedRate <= 0,
		OfferedPerSec:  cfg.OfferedRate,
		Tenants:        cfg.Tenants,
		Conns:          cfg.ConnsPerTenant,
		RotsPerJob:     cfg.RotsPerJob,
		Executors:      cfg.Executors,
		Workers:        cfg.Workers,
		BudgetMs:       float64(cfg.Budget.Microseconds()) / 1e3,
		WallMs:         float64(wall.Microseconds()) / 1e3,
		Issued:         cfg.Jobs,
		Served:         served,
		Rejected:       rejected,
		RateLimited:    rateLimited,
		Failed:         failed,
		Latency:        hist.Summary(),
		ServiceLatency: svcHist.Summary(),
		OverBudget:     overBudget,
		MaxQueueDepth:  maxDepth,
		Admitted:       post[obs.CounterJobsAdmitted] - pre[obs.CounterJobsAdmitted],
		Expired:        post[obs.CounterJobsExpired] - pre[obs.CounterJobsExpired],
		SrvServed:      post[obs.CounterJobsServed] - pre[obs.CounterJobsServed],
		SrvFailed:      post[obs.CounterJobsFailed] - pre[obs.CounterJobsFailed],
		SrvRejected:    post[obs.CounterJobsRejected] - pre[obs.CounterJobsRejected],
		Coalesced:      post[obs.CounterJobsCoalesced] - pre[obs.CounterJobsCoalesced],
		Batches:        post[obs.CounterServeBatches] - pre[obs.CounterServeBatches],
		BRKBytes:       post[obs.CounterBRKBytesStreamed] - pre[obs.CounterBRKBytesStreamed],
	}
	if wall > 0 {
		res.AchievedPerSec = float64(served) / wall.Seconds()
		res.RotPerSec = float64(served*cfg.RotsPerJob) / wall.Seconds()
	}
	if cfg.Jobs > 0 {
		res.RejectionRate = float64(rejected) / float64(cfg.Jobs)
	}
	if res.Admitted > 0 {
		res.CoalescedFrac = float64(res.Coalesced) / float64(res.Admitted)
	}
	if rots := res.SrvServed; rots > 0 {
		res.BRKBytesPerRot = float64(res.BRKBytes) / float64(rots*uint64(cfg.RotsPerJob))
	}
	if firstErr != nil {
		return res, firstErr
	}
	return res, nil
}

// settleLedger waits (bounded) for the server's post-drain accounting to
// catch up: at quiesce admitted = served + expired + failed must hold, and
// the load tests assert it through Result.LedgerGap.
func settleLedger(m *obs.Metrics) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		adm := m.Counter(obs.CounterJobsAdmitted)
		done := m.Counter(obs.CounterJobsServed) + m.Counter(obs.CounterJobsExpired) + m.Counter(obs.CounterJobsFailed)
		if adm == done || time.Now().After(deadline) {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func counterSet(m *obs.Metrics) map[obs.Counter]uint64 {
	out := make(map[obs.Counter]uint64, 8)
	for _, c := range []obs.Counter{
		obs.CounterJobsAdmitted, obs.CounterJobsExpired, obs.CounterJobsServed,
		obs.CounterJobsFailed, obs.CounterJobsRejected, obs.CounterJobsCoalesced,
		obs.CounterServeBatches, obs.CounterBRKBytesStreamed,
	} {
		out[c] = m.Counter(c)
	}
	return out
}

// runClosed drives the closed loop: every connection issues its share of
// the jobs back to back, payload sequence seeded per connection.
func (h *Harness) runClosed(record func(outcome)) error {
	cfg := h.cfg
	total := cfg.Tenants * cfg.ConnsPerTenant
	var wg sync.WaitGroup
	idx := 0
	for t := 0; t < cfg.Tenants; t++ {
		for c := 0; c < cfg.ConnsPerTenant; c++ {
			n := cfg.Jobs / total
			if idx < cfg.Jobs%total {
				n++
			}
			wg.Add(1)
			go func(t, c, n int, seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				cl := h.clients[t][c]
				for j := 0; j < n; j++ {
					o := h.drive(cl, t, r.Intn(cfg.PayloadPool), time.Now())
					record(o)
					if o.err != nil {
						return // conn is broken; its remaining share is lost
					}
				}
			}(t, c, n, int64(cfg.Seed)+int64(idx))
			idx++
		}
	}
	wg.Wait()
	return nil
}

// runOpen drives the open loop: a dispatcher walks the precomputed seeded
// schedule and hands each arrival to its connection's worker queue. Queues
// are buffered to the full schedule length, so a saturated connection never
// blocks the dispatcher — arrivals stay on schedule, which is the entire
// point of open-loop driving.
func (h *Harness) runOpen(start time.Time, record func(outcome)) error {
	cfg := h.cfg
	evs, err := schedule(&cfg, rand.New(rand.NewSource(int64(cfg.Seed))))
	if err != nil {
		return err
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })

	chans := make([][]chan event, cfg.Tenants)
	var wg sync.WaitGroup
	for t := range chans {
		chans[t] = make([]chan event, cfg.ConnsPerTenant)
		for c := range chans[t] {
			ch := make(chan event, len(evs))
			chans[t][c] = ch
			wg.Add(1)
			go func(t, c int, ch chan event) {
				defer wg.Done()
				cl := h.clients[t][c]
				var dead error
				for ev := range ch {
					if dead != nil {
						record(outcome{err: dead})
						continue
					}
					o := h.drive(cl, t, ev.payload, start.Add(ev.at))
					record(o)
					if o.err != nil {
						dead = o.err // conn broken: fail the queue's remainder
					}
				}
			}(t, c, ch)
		}
	}
	for _, ev := range evs {
		if d := time.Until(start.Add(ev.at)); d > 0 {
			time.Sleep(d)
		}
		chans[ev.tenant][ev.conn] <- ev
	}
	for t := range chans {
		for _, ch := range chans[t] {
			close(ch)
		}
	}
	wg.Wait()
	return nil
}
