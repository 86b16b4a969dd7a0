package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"heap/internal/cluster"
	"heap/internal/core"
	"heap/internal/obs"
	"heap/internal/tfhe"

	"heap/internal/rlwe"
)

// Config tunes one Server.
type Config struct {
	// MaxKeyBytes bounds the registry's resident key bytes (0 = unbounded).
	MaxKeyBytes int64
	// Admission is the front-door policy.
	Admission AdmissionConfig
}

// Server is the blind-rotation server: it speaks the cluster's frame protocol
// to any number of tenant connections, pools the same-tenant jobs that queue
// while its executor is busy, and executes each pool as one key-major batch
// under the tenant's registered key — one BRK pass through cache per pool
// instead of one per request. One executor runs the batches, one at a time,
// each fanned over the bootstrapper's Cfg.Workers goroutines at its tile
// size (tfhe.Tile). The bootstrapper provides the parameter set, LUT, and
// scratch pools (heapd's is ColdStart; blind rotation is deterministic in
// the request and the tenant's public key, so results are bit-identical to
// tenant-local execution). A cluster secondary (§V) is a Server whose one
// tenant is its primary (cluster.PrimaryTenant).
type Server struct {
	boot *core.Bootstrapper
	reg  *Registry
	adm  *admission
	co   *coalescer
	met  *obs.Metrics // every service and kernel event of the server
	// acquire resolves and pins a batch's key: the registry's Acquire,
	// which a test wraps to hold the executor at a point it controls.
	acquire func(tenant string) (*tfhe.BlindRotateKey, func(), error)

	hello    cluster.Hello
	dim      int
	maxBatch int
	twoN     uint64
	maxRead  int // payload bound for the connection read loop
	// now drives the admission token buckets, deadline stamping and
	// queue-expiry checks (time.Now outside tests). The queue_wait_ms and
	// batch_ms histograms stay on the real clock: they are measurements, not
	// decisions.
	now func() time.Time

	mu      sync.Mutex
	tenants map[string]*TenantStats
	conns   map[cluster.Conn]struct{}
	closing bool
	ewmaMs  float64 // EWMA of batch service time, feeds admission's wait projection
	startEx sync.Once
	execWG  sync.WaitGroup
	connWG  sync.WaitGroup

	queueWait obs.Hist // admit → dispatch, one observation per admitted job
	batchTime obs.Hist // dispatch → last frame written, one per executed batch
}

// TenantStats is one tenant's admission/coalescing ledger. Admitted jobs
// are partitioned by terminal outcome — Jobs (served), Expired (deadline
// passed while queued), Failed (connection died mid-reply or the batch
// rotation errored) — so at quiesce Admitted = Jobs + Expired + Failed:
// the consistency invariant the shutdown tests assert. Rejected counts
// every non-fatal refusal the tenant saw (door rejections plus Expired,
// which is refused at dispatch).
type TenantStats struct {
	Admitted  uint64 `json:"admitted"`
	Rejected  uint64 `json:"rejected"`
	Coalesced uint64 `json:"coalesced"`
	Jobs      uint64 `json:"jobs"` // jobs fully served
	Rotations uint64 `json:"rotations"`
	Expired   uint64 `json:"expired"`
	Failed    uint64 `json:"failed"`
}

// NewServer builds a server around boot. A boot that holds a blind-rotate key
// is a warm cluster node, and its key is registered for cluster.PrimaryTenant.
// The server takes over boot's recorder (boot.SetRecorder), so boot's kernel
// counters land in the server's metrics: a bootstrapper serves one server,
// and a primary and its nodes each need their own.
func NewServer(boot *core.Bootstrapper, cfg Config) *Server {
	return newServer(boot, cfg, time.Now)
}

// newServer is NewServer on the clock now, the seam through which a test
// puts admission and deadline expiry on virtual time.
func newServer(boot *core.Bootstrapper, cfg Config, now func() time.Time) *Server {
	met := obs.NewMetrics()
	// Kernel counters (brk_bytes_streamed, blind_rotate_tiles, …) from the
	// batch engine land in the same aggregate as the service counters.
	boot.SetRecorder(met)
	dim := cluster.LWEDim(boot)
	p := boot.Params.Parameters
	s := &Server{
		boot:     boot,
		reg:      NewRegistry(p, dim, boot.BinaryKey(), cfg.MaxKeyBytes, met),
		adm:      newAdmission(cfg.Admission, now),
		now:      now,
		co:       newCoalescer(),
		met:      met,
		hello:    cluster.HelloFor(boot),
		dim:      dim,
		maxBatch: p.N(),
		twoN:     uint64(2 * p.N()),
		maxRead:  max(cluster.BatchPayloadBound(p.N(), dim), cluster.MaxKeyChunkPayload),
		tenants:  make(map[string]*TenantStats),
		conns:    make(map[cluster.Conn]struct{}),
	}
	s.acquire = s.reg.Acquire
	if key := boot.BlindRotateKey(); key != nil {
		_ = s.reg.Put(cluster.PrimaryTenant, key) // fails only over MaxKeyBytes: the node joins key-cold
	}
	return s
}

// Metrics exposes the server's aggregate recorder.
func (s *Server) Metrics() *obs.Metrics { return s.met }

// Serve accepts tenant connections until the listener fails (e.g. it was
// closed), serving each one with ServeConn. Safe to run from multiple
// goroutines over multiple listeners.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go func() { _ = s.ServeConn(conn) }()
	}
}

// Close drains the server: open connections are closed, every admitted job
// reaches its outcome (one whose connection is gone fails at its first
// write), and the executor exits.
func (s *Server) Close() {
	s.mu.Lock()
	s.closing = true
	conns := make([]cluster.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	s.connWG.Wait()
	s.co.close()
	s.execWG.Wait()
}

// connWriter serializes the frames of the read loop (key-stream replies,
// rejections) and the executor (accumulator streams) onto one connection,
// and counts them. cluster.WriteFrame writes a frame in one Write.
type connWriter struct {
	mu   sync.Mutex
	conn cluster.Conn
	rec  obs.Recorder
	jobs sync.WaitGroup // admitted jobs without an outcome yet
}

func (cw *connWriter) Write(p []byte) (int, error) {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	n, err := cw.conn.Write(p)
	if err == nil {
		cw.rec.Add(obs.CounterBytesFramed, uint64(n))
	}
	return n, err
}

func (s *Server) stats(tenant string) *TenantStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := s.tenants[tenant]
	if ts == nil {
		ts = &TenantStats{}
		s.tenants[tenant] = ts
	}
	return ts
}

// ServeConn serves one connection whose peer dialed it (a tenant, or a
// node's primary): it accepts the join, whose name is the tenant, acking it
// key-warm when the registry holds that tenant's key, then serves batches and
// key-stream frames. A key upload cut with its connection resumes on the
// tenant's next one. It returns nil on shutdown or EOF and the error on a
// broken link or a protocol violation. It closes the connection and returns
// once the connection's admitted jobs are done.
func (s *Server) ServeConn(conn cluster.Conn) (err error) {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		_ = conn.Close()
		return errors.New("serve: server closing")
	}
	s.conns[conn] = struct{}{}
	s.connWG.Add(1)
	s.mu.Unlock()
	s.startEx.Do(func() {
		s.execWG.Add(1)
		go func() {
			defer s.execWG.Done()
			for jobs, ok := s.co.next(); ok; jobs, ok = s.co.next() {
				s.execBatch(jobs)
			}
		}()
	})
	cw := &connWriter{conn: conn, rec: s.met}
	defer func() {
		_ = conn.Close()
		cw.jobs.Wait()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.connWG.Done()
		if err == io.EOF {
			err = nil
		}
	}()

	tenant, err := cluster.AcceptJoin(conn, s.hello, s.met, s.reg.holds)
	if err != nil {
		return err
	}
	for {
		f, err := cluster.ReadFrame(conn, s.maxRead)
		if err != nil {
			return err
		}
		s.met.Add(obs.CounterBytesFramed, cluster.WireSize(len(f.Payload)))
		switch f.Kind {
		case cluster.FrameBatch:
			if err := s.submit(cw, tenant, f); err != nil {
				return cluster.SendError(cw, err)
			}
		case cluster.FrameKeyOffer, cluster.FrameKeyChunk, cluster.FrameKeyDone:
			// The upload is keyed by tenant, not connection, so one killed
			// mid-stream resumes from the last acked chunk on a fresh
			// connection.
			reply, err := s.reg.receiveKey(tenant, f)
			if err == nil {
				err = cluster.WriteFrame(cw, reply)
			}
			if err != nil {
				cluster.SendError(cw, err)
				// A registry-full refusal is transient — every budget byte is
				// momentarily pinned by executing batches — and it can only
				// surface at the final install, with the wire protocol at a
				// clean frame boundary. The tenant keeps its connection and
				// retries the upload once a pin releases; protocol and parse
				// errors still drop the connection.
				if errors.Is(err, ErrRegistryFull) {
					continue
				}
				return err
			}
		case cluster.FrameShutdown:
			return nil
		default:
			return cluster.SendError(cw, fmt.Errorf("serve: unknown frame kind %#x", f.Kind))
		}
	}
}

// reject refuses one job non-fatally and counts it as Rejected: the
// connection stays usable and the client sees the reason.
func (s *Server) reject(cw *connWriter, tenant string, jobID uint32, reason error) {
	s.met.Add(obs.CounterJobsRejected, 1)
	ts := s.stats(tenant)
	s.mu.Lock()
	ts.Rejected++
	s.mu.Unlock()
	sendRejection(cw, jobID, reason)
}

// sendRejection writes a job's rejection frame, with no count: the caller has
// already put the job in the ledger.
func sendRejection(cw *connWriter, jobID uint32, reason error) {
	_ = cluster.WriteFrame(cw, &cluster.Frame{
		Kind:    cluster.FrameRejected,
		Shard:   jobID,
		Payload: cluster.EncodeReason(reason.Error()),
	})
}

// submit decodes one batch request and runs it through admission into the
// coalescer. The batch frame's seq field carries the client's deadline
// budget in milliseconds (0 = unbounded), exactly as in the cluster
// protocol. A batch that does not decode is a protocol violation, returned
// to end the connection; an admission refusal is a non-fatal rejection.
func (s *Server) submit(cw *connWriter, tenant string, f *cluster.Frame) error {
	idxs, lwes, err := cluster.DecodeBatch(f.Payload, s.maxBatch, s.dim, s.twoN)
	if err != nil {
		return err
	}
	budget := time.Duration(f.Seq) * time.Millisecond
	s.mu.Lock()
	projected := time.Duration(s.ewmaMs * float64(time.Millisecond))
	s.mu.Unlock()
	if err := s.adm.admit(tenant, budget, projected); err != nil {
		s.reject(cw, tenant, f.Shard, err)
		return nil
	}
	j := &job{tenant: tenant, id: f.Shard, idxs: idxs, lwes: lwes, cw: cw, admitted: time.Now()}
	if budget > 0 {
		j.deadline = s.now().Add(budget)
	}
	s.met.Add(obs.CounterJobsAdmitted, 1)
	s.met.Gauge(obs.GaugeQueueDepth, 1)
	ts := s.stats(tenant)
	s.mu.Lock()
	ts.Admitted++
	s.mu.Unlock()
	cw.jobs.Add(1)
	s.co.add(j)
	return nil
}

var errNoLiveJob = errors.New("serve: every job of the batch failed")

// execBatch runs one tenant's pool — whatever queued for that key while the
// executor was busy, a lone job on an idle server — as a single key-major
// batch: one registry Acquire, one BlindRotateBatchWithKey over the
// concatenated LWEs, its tiles fanned over the bootstrapper's Cfg.Workers
// goroutines, and
// accumulators streamed back per job as tiles complete. A job expired in the
// queue is rejected at dispatch; one past its deadline (s.now) at a tile or
// with a failed write is failed there, and the batch stops once all are.
func (s *Server) execBatch(jobs []*job) {
	tenant := jobs[0].tenant
	ts := s.stats(tenant)
	dispatched := time.Now()
	now := s.now()
	live := jobs[:0]
	for _, j := range jobs {
		s.adm.release()
		s.met.Gauge(obs.GaugeQueueDepth, -1)
		s.queueWait.Observe(dispatched.Sub(j.admitted))
		if !j.deadline.IsZero() && now.After(j.deadline) {
			s.reject(j.cw, tenant, j.id, fmt.Errorf("%w (expired while queued)", ErrDeadline))
			s.met.Add(obs.CounterJobsExpired, 1)
			s.mu.Lock()
			ts.Expired++
			s.mu.Unlock()
			j.cw.jobs.Done()
			continue
		}
		live = append(live, j)
	}
	defer func() {
		for _, j := range live {
			j.cw.jobs.Done()
		}
	}()
	if len(live) == 0 {
		return
	}

	brk, release, err := s.acquire(tenant)
	if err != nil {
		s.met.Add(obs.CounterJobsFailed, uint64(len(live)))
		s.mu.Lock()
		ts.Failed += uint64(len(live))
		s.mu.Unlock()
		// An admitted job the key cannot serve failed; it was not refused
		// at the door, so it is not Rejected too.
		for _, j := range live {
			sendRejection(j.cw, j.id, err)
		}
		return
	}
	defer release()

	total := 0
	for _, j := range live {
		total += len(j.lwes)
	}
	type slot struct {
		j     *job
		local int // client-local LWE index
	}
	slots := make([]slot, 0, total)
	lwes := make([]*rlwe.LWECiphertext, 0, total)
	for _, j := range live {
		for k, lwe := range j.lwes {
			slots = append(slots, slot{j, j.idxs[k]})
			lwes = append(lwes, lwe)
		}
	}
	accs := make([]*rlwe.Ciphertext, total)

	s.met.Gauge(obs.GaugeInFlightShards, int64(len(live)))
	start := time.Now()
	var sendMu sync.Mutex
	open := len(live) // jobs not failed yet, under sendMu
	opts := tfhe.BatchOptions{
		Workers: s.boot.Cfg.Workers,
		OnTile: func(lo, hi int) error {
			// Stream finished accumulators while later tiles still rotate.
			// Encoding runs on the tile's own worker, and each encoded
			// accumulator goes back to the bootstrapper's pool; sendMu
			// serializes concurrent tiles only around the socket writes and
			// the job state they stamp (seq, failed), so frames of one job
			// leave in seq order whichever tile finishes first.
			payloads := make([][]byte, hi-lo)
			for k := lo; k < hi; k++ {
				payloads[k-lo], _ = cluster.EncodeAcc(slots[k].local, accs[k]) // nil on error: fails the job below
				s.boot.RecycleAccumulator(accs[k])
				accs[k] = nil
			}
			sendMu.Lock()
			defer sendMu.Unlock()
			now := s.now()
			for k := lo; k < hi; k++ {
				j := slots[k].j
				if j.failed {
					continue
				}
				late := !j.deadline.IsZero() && now.After(j.deadline)
				if late {
					cluster.SendError(j.cw, fmt.Errorf("serve: job %d passed its deadline mid-batch", j.id))
				}
				f := &cluster.Frame{Kind: cluster.FrameAcc, Shard: j.id, Seq: j.seq, Payload: payloads[k-lo]}
				if late || f.Payload == nil || cluster.WriteFrame(j.cw, f) != nil {
					j.failed = true // late, bad accumulator or conn gone
					open--
					continue
				}
				j.seq++
			}
			if open == 0 {
				return errNoLiveJob
			}
			return nil
		},
	}
	rotErr := s.boot.BlindRotateBatchWithKey(accs, lwes, brk, opts) // errNoLiveJob once every job failed
	elapsedMs := float64(time.Since(start)) / float64(time.Millisecond)
	s.met.Gauge(obs.GaugeInFlightShards, -int64(len(live)))

	s.met.Add(obs.CounterServeBatches, 1)
	if len(live) > 1 {
		s.met.Add(obs.CounterJobsCoalesced, uint64(len(live)))
	}
	s.mu.Lock()
	if len(live) > 1 {
		ts.Coalesced += uint64(len(live))
	}
	if s.ewmaMs == 0 {
		s.ewmaMs = elapsedMs
	} else {
		s.ewmaMs = 0.8*s.ewmaMs + 0.2*elapsedMs
	}
	s.mu.Unlock()

	for _, j := range live {
		if rotErr != nil {
			if !j.failed {
				cluster.SendError(j.cw, rotErr)
			}
			s.jobFailed(ts)
			continue
		}
		if j.failed {
			s.jobFailed(ts)
			continue
		}
		if err := cluster.WriteBatchEnd(j.cw, j.id, len(j.lwes)); err != nil {
			s.jobFailed(ts)
			continue
		}
		s.met.Add(obs.CounterJobsServed, 1)
		s.mu.Lock()
		ts.Jobs++
		ts.Rotations += uint64(len(j.lwes))
		s.mu.Unlock()
	}
	s.batchTime.Observe(time.Since(dispatched))
}

// jobFailed records one admitted job's terminal failure (conn gone or batch
// error) in both the counter ledger and the tenant ledger.
func (s *Server) jobFailed(ts *TenantStats) {
	s.met.Add(obs.CounterJobsFailed, 1)
	s.mu.Lock()
	ts.Failed++
	s.mu.Unlock()
}

// ServiceSnapshot is the /metrics JSON document: the obs aggregate plus the
// per-tenant ledgers and the resident registry.
type ServiceSnapshot struct {
	Server   obs.Snapshot           `json:"server"`
	Tenants  map[string]TenantStats `json:"tenants"`
	Registry []TenantKey            `json:"registry"`
	// KeyBytes is the registry's resident key bytes (Registry.Bytes): the
	// sum of Registry's entries, the figure its byte budget is held to.
	KeyBytes    int64   `json:"key_bytes"`
	QueueDepth  int     `json:"queue_depth"`
	EWMABatchMs float64 `json:"ewma_batch_ms"`
	// QueueWaitMs is admit → dispatch, one observation per admitted job
	// (served, expired or failed alike: count = jobs_admitted at quiesce).
	// BatchMs is dispatch → last frame written, one per executed batch.
	QueueWaitMs obs.HistSnapshot `json:"queue_wait_ms"`
	BatchMs     obs.HistSnapshot `json:"batch_ms"`
}

// Snapshot collects a point-in-time service snapshot.
func (s *Server) Snapshot() ServiceSnapshot {
	s.mu.Lock()
	tenants := make(map[string]TenantStats, len(s.tenants))
	for t, st := range s.tenants {
		tenants[t] = *st
	}
	ewma := s.ewmaMs
	s.mu.Unlock()
	return ServiceSnapshot{
		Server:      s.met.Snapshot(),
		Tenants:     tenants,
		Registry:    s.reg.Resident(),
		KeyBytes:    s.reg.Bytes(),
		QueueDepth:  s.adm.depth(),
		EWMABatchMs: ewma,
		QueueWaitMs: s.queueWait.Summary(),
		BatchMs:     s.batchTime.Summary(),
	}
}

// MetricsHandler serves the snapshot as indented JSON — the expvar-style
// endpoint heapd mounts at /metrics.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		b, err := json.MarshalIndent(s.Snapshot(), "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		b = append(b, '\n')
		_, _ = w.Write(b)
	})
}
