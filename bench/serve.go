package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"heap"
	"heap/internal/rlwe"
	"heap/internal/serve"
)

// heapdProc is the heapd child under test. It is started with every flag but
// the scale and the two listen addresses at its default, so a changed default
// shows in the numbers.
type heapdProc struct {
	cmd        *exec.Cmd
	addr       string // frame-protocol address
	metricsURL string
	exited     chan struct{} // closed once the child is reaped
}

func startHeapd(bin string) (*heapdProc, error) {
	cmd := exec.Command(bin, "-scale", "test", "-addr", "127.0.0.1:0", "-metrics", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	// The child must not outlive the driver, however the driver dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start heapd: %w", err)
	}
	h := &heapdProc{cmd: cmd, exited: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer close(h.exited)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "metrics on "); ok {
				h.metricsURL = strings.TrimSpace(rest)
			}
			if _, rest, ok := strings.Cut(line, "bootstraps on "); ok && h.addr == "" {
				h.addr, _, _ = strings.Cut(rest, " ")
				close(ready)
			}
		}
		_ = cmd.Wait() // the exit status of a killed child carries no news
	}()
	select {
	case <-ready:
		return h, nil
	case <-h.exited:
		return nil, errors.New("heapd exited before it was listening")
	case <-time.After(20 * time.Second):
		h.stop()
		return nil, errors.New("heapd was not listening within 20s")
	}
}

// stop terminates the child and returns once it is reaped.
func (h *heapdProc) stop() {
	_ = h.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-h.exited:
	case <-time.After(3 * time.Second):
		_ = h.cmd.Process.Kill()
		<-h.exited
	}
}

var metricsClient = &http.Client{Timeout: 2 * time.Second}

// snapshot reads heapd's /metrics document.
func (h *heapdProc) snapshot() (*serve.ServiceSnapshot, error) {
	resp, err := metricsClient.Get(h.metricsURL)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var s serve.ServiceSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return &s, nil
}

// settled reads /metrics once heapd's job ledger adds up, or after half a
// second. heapd counts a job served after writing its last frame, so a client
// can have its answer first; a snapshot taken in between would carry the job
// into the wrong side of a before/after difference.
func (h *heapdProc) settled() (*serve.ServiceSnapshot, error) {
	snap, err := h.snapshot()
	for i := 0; err == nil && ledgerGap(snap.Server.Counters) != 0 && i < 25; i++ {
		time.Sleep(20 * time.Millisecond)
		snap, err = h.snapshot()
	}
	return snap, err
}

// serveSpec is the traffic of one serve workload. period 0 is a closed loop:
// every connection sends its next job when the previous one is back.
type serveSpec struct {
	tenants, conns int
	limitMs        float64
	period, jitter time.Duration // open loop: each tenant due every period ± jitter
	budget         time.Duration // deadline carried to the server (0 = none)
}

const (
	poolSize   = 8 // seeded payloads a job is drawn from
	jobLWEs    = 2 // blind rotations per job
	checkCount = 8 // n_br of set-up's local bootstrap check
)

// payload is one job: the LWE ciphertexts sent, and what the tenant's own
// BlindRotateOne of this build makes of them. A service accumulator must be
// bit-equal to its reference.
type payload struct {
	lwes []*rlwe.LWECiphertext
	ref  []*rlwe.Ciphertext
}

type tenant struct {
	name string
	ctx  *heap.Context
	pool []payload
}

// tenantConn is one TCP connection of one tenant. Rotate is synchronous, so a
// connection carries one job at a time.
type tenantConn struct {
	lane   int
	tenant *tenant
	addr   string
	nc     net.Conn
	cl     *serve.Client
	rng    *rand.Rand // draws the pool index of each job
}

func (c *tenantConn) dial() error {
	nc, err := net.DialTimeout("tcp", c.addr, 2*time.Second)
	if err != nil {
		return err
	}
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	cl, err := serve.NewClient(nc, c.tenant.ctx.Boot, c.tenant.name, nil)
	if err != nil {
		nc.Close()
		return err
	}
	c.nc, c.cl = nc, cl
	return nil
}

func sameCiphertext(a, b *rlwe.Ciphertext) bool {
	if a == nil || b == nil || a.IsNTT != b.IsNTT || a.Level() != b.Level() {
		return false
	}
	for i := range a.C0.Limbs {
		if !slices.Equal(a.C0.Limbs[i], b.C0.Limbs[i]) || !slices.Equal(a.C1.Limbs[i], b.C1.Limbs[i]) {
			return false
		}
	}
	return true
}

// job sends one payload and classifies what came back. A job that errors or
// is still outstanding at timeout leaves the stream in an unknown state, so
// its connection is closed and a fresh one dialled for the jobs after it.
func (c *tenantConn) job(p *payload, budget, timeout time.Duration) outcome {
	if c.cl == nil {
		if err := c.dial(); err != nil {
			return errored
		}
	}
	_ = c.nc.SetDeadline(time.Now().Add(timeout))
	accs, err := c.cl.Rotate(p.lwes, budget)
	if err == nil {
		for i := range p.ref {
			if !sameCiphertext(accs[i], p.ref[i]) {
				return incorrect
			}
		}
		return correct
	}
	var rej *serve.RejectedError
	if errors.As(err, &rej) {
		if strings.Contains(rej.Reason, "expired") {
			return expired
		}
		return refused
	}
	c.nc.Close()
	c.nc, c.cl = nil, nil
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return unfinished
	}
	return errored
}

// serveInst is a set-up serve workload: heapd running, every tenant's key
// uploaded, every connection joined.
type serveInst struct {
	spec       serveSpec
	seed       int64
	child      *heapdProc
	tenants    []*tenant
	conns      []*tenantConn
	checkErr   float64 // slot error of set-up's local bootstrap
	keyUploadS float64
	keyChunks  uint64 // heapd's key_chunks counter: chunks accepted at upload
}

func setupServe(spec serveSpec, seed int64, heapdBin string) (instance, error) {
	child, err := startHeapd(heapdBin)
	if err != nil {
		return nil, err
	}
	s := &serveInst{spec: spec, seed: seed, child: child}
	for t := 0; t < spec.tenants; t++ {
		tn, checkErr, err := newTenant(seed, t)
		if err == nil {
			s.tenants = append(s.tenants, tn)
			s.checkErr = max(s.checkErr, checkErr)
			err = s.connect(tn)
		}
		if err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// newTenant generates tenant t's keys and payload pool from the run's seed and
// checks one local exact-mode bootstrap at decrypt level, whose slot error it
// returns. Nothing here talks to heapd.
func newTenant(seed int64, t int) (*tenant, float64, error) {
	tseed := seed*16 + int64(t)
	cfg := heap.TestContextConfig()
	cfg.Slots = checkCount / 2
	cfg.Seed = uint64(tseed)
	cfg.Bootstrap.Seed = uint64(tseed) + 2
	ctx, err := heap.NewContext(cfg)
	if err != nil {
		return nil, 0, err
	}
	tn := &tenant{name: fmt.Sprintf("tenant-%d", t), ctx: ctx}

	rng := rand.New(rand.NewSource(tseed))
	draw := func() []complex128 {
		v := make([]complex128, cfg.Slots)
		for i := range v {
			v[i] = complex(bootAmp*(2*rng.Float64()-1), bootAmp*(2*rng.Float64()-1))
		}
		return v
	}
	for k := 0; k < poolSize; k++ {
		p := payload{lwes: ctx.Boot.PrepareSparse(ctx.Client.EncryptAtLevel(draw(), 1), jobLWEs).LWEs}
		for _, lwe := range p.lwes {
			p.ref = append(p.ref, ctx.Boot.BlindRotateOne(lwe))
		}
		tn.pool = append(tn.pool, p)
	}
	v := draw()
	e := maxSlotErr(ctx.Decrypt(ctx.Boot.BootstrapSparse(ctx.Client.EncryptAtLevel(v, 1), checkCount)), v)
	if !(e <= ctx.Boot.ExpectedSlotErrorBound()) {
		return nil, 0, fmt.Errorf("%s: local bootstrap check is off by %g", tn.name, e)
	}
	return tn, e, nil
}

// connect joins the tenant's connections and uploads its key over the first.
func (s *serveInst) connect(tn *tenant) error {
	for c := 0; c < s.spec.conns; c++ {
		tc := &tenantConn{lane: len(s.conns), tenant: tn, addr: s.child.addr}
		if err := tc.dial(); err != nil {
			return fmt.Errorf("%s: join: %w", tn.name, err)
		}
		s.conns = append(s.conns, tc)
		if c == 0 {
			_ = tc.nc.SetDeadline(time.Now().Add(30 * time.Second))
			t0 := time.Now()
			if err := tc.cl.UploadKey(0, 10*time.Second); err != nil {
				return fmt.Errorf("%s: key upload: %w", tn.name, err)
			}
			s.keyUploadS += time.Since(t0).Seconds()
		}
	}
	return nil
}

// schedule is tenant t's open-loop due times, offsets from the pass's start:
// every period, tenants evenly offset, each due time jittered from the seed.
func (s *serveInst) schedule(t int, lim limits) []time.Duration {
	rng := rand.New(rand.NewSource(s.seed*64 + int64(t)))
	phase := s.spec.jitter + s.spec.period*time.Duration(t)/time.Duration(s.spec.tenants)
	var due []time.Duration
	for k := 0; ; k++ {
		nominal := phase + s.spec.period*time.Duration(k)
		if lim.ops > 0 && k >= lim.ops || lim.ops == 0 && nominal.Seconds() >= lim.seconds {
			return due
		}
		j := time.Duration((2*rng.Float64() - 1) * float64(s.spec.jitter))
		due = append(due, nominal+j)
	}
}

// connResult is what one connection's loop reports.
type connResult struct {
	tally
	latMs, lagMs []float64
	within       int
}

// drive runs one connection's jobs: closed loop when sched is nil, else one
// job per due time with latency counted from the due time. jobsBack counts
// the correct jobs of all connections as they come back.
func (s *serveInst) drive(c *tenantConn, sched []time.Duration, lim limits, start time.Time, tr *tracer, jobsBack *atomic.Int64) connResult {
	var res connResult
	for k := 0; ; k++ {
		due := time.Now()
		if sched == nil {
			if !lim.more(k, start) {
				return res
			}
		} else {
			if k == len(sched) {
				return res
			}
			due = start.Add(sched[k])
			if due.After(lim.ceiling) {
				res.add(unfinished)
				continue
			}
			time.Sleep(time.Until(due))
			res.lagMs = append(res.lagMs, float64(time.Since(due))/1e6)
		}
		p := &c.tenant.pool[c.rng.Intn(poolSize)]
		id := tr.begin("serve.job", -1, k*len(s.conns)+c.lane, c.lane)
		o := c.job(p, s.spec.budget, lim.opTimeout)
		tr.end(id)
		ms := float64(time.Since(due)) / 1e6
		res.add(o)
		if o == correct {
			jobsBack.Add(1)
			res.latMs = append(res.latMs, ms)
			if ms <= s.spec.limitMs {
				res.within++
			}
		}
	}
}

// childCPU reads the heapd child's CPU time, 0 if it is gone.
func (s *serveInst) childCPU() time.Duration {
	d, _ := procCPU(s.child.cmd.Process.Pid)
	return d
}

func (s *serveInst) pass(lim limits, tr *tracer) passResult {
	res := passResult{maxErr: s.checkErr}
	for _, c := range s.conns {
		c.rng = rand.New(rand.NewSource(s.seed*64 + int64(c.lane)))
		// Warm-up: pins the key in the registry and fills heapd's pools.
		c.job(&c.tenant.pool[0], 0, lim.opTimeout)
	}
	before, _ := s.child.settled()

	// One watcher, ticking every 100 ms. Every second it takes a sample of
	// cpu_ms_per_op: CPU cannot be told apart by job, so a sample is the CPU
	// that driver and child spent since the last one over the jobs that came
	// back. When traced it also polls heapd's queue depth on every tick —
	// only then, because building the /metrics document costs the server CPU.
	var jobsBack atomic.Int64
	cpuNow := func() time.Duration { return selfCPU() + s.childCPU() }
	cpu0, jobs0 := cpuNow(), int64(0)
	sample := func() {
		if cpu, jobs := cpuNow(), jobsBack.Load(); jobs > jobs0 {
			res.cpuMs = append(res.cpuMs, float64(cpu-cpu0)/1e6/float64(jobs-jobs0))
			cpu0, jobs0 = cpu, jobs
		}
	}
	stopWatch := make(chan struct{})
	var watching sync.WaitGroup
	watching.Add(1)
	go func() {
		defer watching.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for n := 1; ; n++ {
			select {
			case <-stopWatch:
				return
			case <-tick.C:
			}
			if n%10 == 0 {
				sample()
			}
			if tr != nil {
				if snap, err := s.child.snapshot(); err == nil && snap.QueueDepth > res.queueMax {
					res.queueMax = snap.QueueDepth
				}
			}
		}
	}()

	results := make([]connResult, len(s.conns))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range s.conns {
		var sched []time.Duration
		if s.spec.period > 0 {
			sched = s.schedule(i/s.spec.conns, lim)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = s.drive(c, sched, lim, start, tr, &jobsBack)
		}()
	}
	wg.Wait()
	res.wallS = time.Since(start).Seconds()
	close(stopWatch)
	watching.Wait()
	sample() // the last, shorter slice: all there is of a pass under a second

	for _, r := range results {
		res.merge(r.tally)
		res.latMs = append(res.latMs, r.latMs...)
		res.lagMs = append(res.lagMs, r.lagMs...)
		res.within += r.within
	}
	after, err := s.child.settled()
	if before != nil && err == nil {
		s.keyChunks = after.Server.Counters["key_chunks"]
		res.counters = make(map[string]uint64)
		for name, v := range after.Server.Counters {
			res.counters[name] = v - before.Server.Counters[name]
		}
		res.stageMs = map[string]float64{
			"BlindRotate": after.Server.Shards["BlindRotate"].TotalMs - before.Server.Shards["BlindRotate"].TotalMs,
		}
	}
	return res
}

// ledgerGap is admitted − served − expired − failed: 0 once heapd is quiet.
func ledgerGap(c map[string]uint64) int64 {
	return int64(c["jobs_admitted"]) - int64(c["jobs_served"]) - int64(c["jobs_expired"]) - int64(c["jobs_failed"])
}

func (s *serveInst) layers(m map[string]float64, r *passResult, _ *tracer) {
	jobs := float64(r.counters["jobs_served"])
	if jobs == 0 {
		return
	}
	c := func(name string) float64 { return float64(r.counters[name]) }
	busy := r.stageMs["BlindRotate"]
	m["rlwe.ntt_limb_transforms_per_op"] = c("ntt_limb_transforms") / jobs
	m["rlwe.external_products_per_op"] = c("external_products") / jobs
	m["rlwe.key_switches_per_op"] = c("key_switches") / jobs
	m["rlwe.merges_per_op"] = c("merges") / jobs
	m["tfhe.tiles_per_op"] = c("blind_rotate_tiles") / jobs
	m["tfhe.key_mb"] = float64(s.tenants[0].ctx.Boot.BlindRotateKey().SizeBytes()) / 1e6
	m["serve.rotate_busy_ms_per_job"] = busy / jobs
	// A job waits for everything that is not its batch rotating: the
	// coalescing window, the executor, the key pin, the write-back.
	m["serve.wait_ms_p50"] = median(r.latMs) - busy/c("serve_batches")
	m["serve.batches_per_job"] = c("serve_batches") / jobs
	m["serve.coalesced_share"] = c("jobs_coalesced") / jobs
	m["serve.brk_bytes_per_rot"] = c("brk_bytes_streamed") / c("blind_rotates")
	m["tfhe.brk_bytes_per_rot"] = m["serve.brk_bytes_per_rot"]
	m["serve.rejected"] = c("jobs_rejected")
	m["serve.expired"] = c("jobs_expired")
	m["serve.failed"] = c("jobs_failed")
	m["serve.ledger_gap"] = float64(ledgerGap(r.counters))
	m["serve.key_upload_s"] = s.keyUploadS
	m["serve.queue_depth_max"] = float64(r.queueMax)
	m["cluster.bytes_framed_per_job"] = c("bytes_framed") / jobs
	m["cluster.key_chunks"] = float64(s.keyChunks)
}

func (s *serveInst) params() map[string]any {
	return map[string]any{
		"heapd_flags": s.child.cmd.Args[1:], "scale": "heap.TestContextConfig (N=128, exact mode)",
		"tenants": s.spec.tenants, "conns_per_tenant": s.spec.conns,
		"rot_per_job": jobLWEs, "payload_pool": poolSize,
		"period_ms": s.spec.period.Milliseconds(), "jitter_ms": s.spec.jitter.Milliseconds(),
		"budget_ms": s.spec.budget.Milliseconds(), "limit_ms": s.spec.limitMs,
	}
}

func (s *serveInst) rssPID() int { return s.child.cmd.Process.Pid }

func (s *serveInst) close() {
	for _, c := range s.conns {
		if c.cl != nil {
			_ = c.cl.Close()
		}
	}
	s.child.stop()
}
