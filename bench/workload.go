package main

import (
	"math"
	"time"
)

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names; TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct{ name, unit string }

// endToEndDefs are what a user of the system would see, and what
// BENCHMARK.json lists for the driver to gate. Every workload reports every
// one of them, from the untraced pass.
//
// The two timings are first quartiles, not medians. The build host's
// neighbours slow it by about a quarter in bursts of seconds (README.md,
// "Why first quartiles"), which makes an operation's time two-humped; a
// median jumps from one hump to the other when the bursts pass half of a run,
// a first quartile stays on the fast hump until they pass three quarters.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"op_p25_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"within_limit_share", "ratio"},
	{"precision_bits", "bits"},
	{"peak_rss_mb", "MB"},
}

// ungatedDefs are end-to-end figures that every envelope carries and
// `compare` judges, but that BENCHMARK.json leaves out: between identical
// runs on the build host their spread can pass the widest bound the driver
// takes, and the driver refuses a benchmark on that.
var ungatedDefs = []metricDef{
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// perLayerDefs are the single-layer figures of the traced pass. A workload
// that does not exercise a layer reports 0 for it.
var perLayerDefs = []metricDef{
	{"ring.ntt_us", "us"}, {"ring.intt_us", "us"}, {"ring.mac_us", "us"},
	{"ring.monomial_us", "us"}, {"ring.automorphism_us", "us"},
	{"rns.extend_us", "us"}, {"rns.moddown_us", "us"},
	{"rns.moddown_coeff_us", "us"}, {"rns.rescale_us", "us"},
	{"rlwe.extprod_us", "us"}, {"rlwe.galois_ks_us", "us"},
	{"rlwe.ntt_limb_transforms_per_op", "count"}, {"rlwe.external_products_per_op", "count"},
	{"rlwe.key_switches_per_op", "count"}, {"rlwe.merges_per_op", "count"},
	{"tfhe.rot_ms_binary_1t", "ms"}, {"tfhe.rot_ms_ternary_1t", "ms"},
	{"tfhe.parallel_eff", "ratio"}, {"tfhe.brk_bytes_per_rot", "bytes"},
	{"tfhe.tiles_per_op", "count"}, {"tfhe.key_mb", "MB"},
	{"ckks.rotate_ms", "ms"}, {"ckks.mulrelinrescale_ms", "ms"}, {"ckks.add_us", "us"},
	{"core.prepare_ms", "ms"}, {"core.rotate_ms", "ms"}, {"core.finish_ms", "ms"},
	{"core.self_ms", "ms"}, {"core.stage_extract_ms", "ms"},
	{"core.stage_repack_ms", "ms"}, {"core.stage_finish_ms", "ms"},
	{"core.allocs_per_op", "count"}, {"core.alloc_mb_per_op", "MB"},
	{"core.keygen_s", "s"}, {"core.explained_share", "ratio"},
	{"serve.rotate_busy_ms_per_job", "ms"}, {"serve.wait_ms_p50", "ms"},
	{"serve.batches_per_job", "ratio"}, {"serve.coalesced_share", "ratio"},
	{"serve.brk_bytes_per_rot", "bytes"}, {"serve.rejected", "count"},
	{"serve.expired", "count"}, {"serve.failed", "count"},
	{"serve.ledger_gap", "count"}, {"serve.key_upload_s", "s"},
	{"serve.queue_depth_max", "count"},
	{"cluster.bytes_framed_per_job", "bytes"}, {"cluster.key_chunks", "count"},
	{"bench.gen_lag_p90_ms", "ms"}, {"bench.trace_overhead_pct", "%"},
}

// maxGenLagMs is the generator lag above which an open-loop run no longer
// measured the schedule it claims.
const maxGenLagMs = 10

// outcome classifies one attempted operation.
type outcome int

const (
	correct    outcome = iota
	errored            // the call returned an error
	refused            // admission turned the job away
	expired            // the job's deadline passed while it was queued
	incorrect          // an output came back and was wrong
	unfinished         // still outstanding at its timeout or at the run ceiling
)

// tally counts attempted operations by outcome. Everything that is not
// correct is failed: a refusal or a stranded job misses any latency limit.
type tally struct {
	Attempted  int `json:"attempted"`
	Errors     int `json:"errors"`
	Refused    int `json:"refused"`
	Expired    int `json:"expired"`
	Incorrect  int `json:"incorrect"`
	Unfinished int `json:"unfinished"`
}

func (t *tally) add(o outcome) {
	t.Attempted++
	switch o {
	case errored:
		t.Errors++
	case refused:
		t.Refused++
	case expired:
		t.Expired++
	case incorrect:
		t.Incorrect++
	case unfinished:
		t.Unfinished++
	}
}

// merge adds another client's counts.
func (t *tally) merge(o tally) {
	t.Attempted += o.Attempted
	t.Errors += o.Errors
	t.Refused += o.Refused
	t.Expired += o.Expired
	t.Incorrect += o.Incorrect
	t.Unfinished += o.Unfinished
}

func (t tally) failed() int {
	return t.Errors + t.Refused + t.Expired + t.Incorrect + t.Unfinished
}

func (t tally) failedShare() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.Attempted)
}

// limits bounds one measured pass. Exactly one of ops and seconds is set:
// ops gives runs whose counts and precision repeat exactly, seconds is what
// BENCHMARK.json's command uses.
type limits struct {
	ops       int           // operations per client (0 = use seconds)
	seconds   float64       // start no operation after this long
	ceiling   time.Time     // hard wall-clock end of the whole run
	opTimeout time.Duration // client-side timeout of one operation
}

// more reports whether a client that has started done operations since start
// may start another.
func (l limits) more(done int, start time.Time) bool {
	if time.Now().After(l.ceiling) {
		return false
	}
	if l.ops > 0 {
		return done < l.ops
	}
	return time.Since(start).Seconds() < l.seconds
}

// third is the length of both passes of a traced run.
func (l limits) third() limits {
	if l.ops > 0 {
		l.ops = (l.ops + 2) / 3
	}
	l.seconds /= 3
	return l
}

// passResult is what one measured pass of a workload yields.
type passResult struct {
	tally
	latMs []float64 // one entry per correct operation
	wallS float64   // wall time the operations ran in
	// cpuMs samples user+sys CPU per operation, driver plus heapd child: one
	// entry per operation, or on the serve workloads, where CPU cannot be
	// told apart by job, one per second of the pass (CPU spent / jobs back).
	cpuMs   []float64
	maxErr  float64   // largest decoded slot error over all checked outputs
	within  int       // operations correct within the workload's latency limit
	lagMs   []float64 // open loop: how late each due job reached its connection
	mallocs uint64    // heap objects allocated inside operations (traced pass)
	allocB  uint64    // heap bytes allocated inside operations (traced pass)
	// queueMax is heapd's deepest queue, polled every 100 ms (traced pass).
	queueMax int
	// counters and stageMs are the obs ledger over the pass: the local
	// bootstrapper's (traced pass only), or heapd's /metrics delta.
	counters map[string]uint64
	stageMs  map[string]float64
}

// executed is the number of operations that ran to an outcome.
func (r *passResult) executed() int { return r.Attempted - r.Unfinished }

func (r *passResult) perOp(counter string) float64 {
	if r.executed() == 0 {
		return 0
	}
	return float64(r.counters[counter]) / float64(r.executed())
}

// cpuPerOp is the pass's cpu_ms_per_op: the first quartile of its samples.
func (r *passResult) cpuPerOp() float64 { return percentile(r.cpuMs, 0.25) }

// endToEnd derives the user-visible metrics of one pass, gated and ungated.
func endToEnd(setupS, rssMB float64, r *passResult) map[string]float64 {
	m := map[string]float64{
		"setup_s":       setupS,
		"op_p25_ms":     percentile(r.latMs, 0.25),
		"op_p50_ms":     median(r.latMs),
		"op_p90_ms":     percentile(r.latMs, 0.9),
		"cpu_ms_per_op": r.cpuPerOp(),
		"peak_rss_mb":   rssMB,
	}
	if r.wallS > 0 {
		m["ops_per_s"] = float64(len(r.latMs)) / r.wallS
	}
	if r.Attempted > 0 {
		m["within_limit_share"] = float64(r.within) / float64(r.Attempted)
	}
	if r.maxErr > 0 {
		m["precision_bits"] = -math.Log2(r.maxErr)
	}
	return m
}

// instance is one set-up workload: keys generated, inputs seeded, and for the
// serve workloads a heapd child running.
type instance interface {
	// pass runs one warm-up operation and then a measured pass. The same
	// limits give the same inputs on every call. tr is nil when untraced.
	pass(lim limits, tr *tracer) passResult
	// layers adds the workload's own per-layer metrics of a traced pass to m,
	// which already holds the kernel figures.
	layers(m map[string]float64, traced *passResult, tr *tracer)
	// params are the workload's sizes, for the result envelope.
	params() map[string]any
	// rssPID is the process whose peak RSS the workload reports (0 = self).
	rssPID() int
	close()
}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name, why string
	// setupReps is how often a run sets the workload up; setup_s is the
	// median. Three where set-up takes about a second, once where it takes six.
	setupReps int
	setup     func(seed int64, heapd string) (instance, error)
}

// workloads returns the five workloads at full or toy size. Toy sizes run the
// same code on miniature rings for `go test -short`.
func workloads(toy bool) []workload {
	boot := ringSpec{LogN: 13, LimbBits: 36, Limbs: 7, PLimbs: 4, Dnum: 2, LogScale: 35, Slots: 8, NT: 16, Workers: 2}
	tailR := ringSpec{LogN: 12, LimbBits: 36, Limbs: 6, PLimbs: 3, Dnum: 2, LogScale: 35, Slots: 128, NT: 8, Workers: 2}
	chain := ringSpec{LogN: 13, LimbBits: 36, Limbs: 7, PLimbs: 4, Dnum: 2, LogScale: 35, Slots: 4096, NT: 16, Workers: 2, ColdStart: true}
	bootLimit, tailLimit, chainLimit, closedLimit := 4000.0, 2000.0, 150.0, 250.0
	if toy {
		boot = ringSpec{LogN: 8, LimbBits: 30, Limbs: 4, PLimbs: 2, Dnum: 2, LogScale: 28, Slots: 4, NT: 8, Workers: 2}
		tailR = ringSpec{LogN: 8, LimbBits: 30, Limbs: 4, PLimbs: 2, Dnum: 2, LogScale: 28, Slots: 8, NT: 8, Workers: 2}
		chain = ringSpec{LogN: 8, LimbBits: 30, Limbs: 5, PLimbs: 3, Dnum: 2, LogScale: 28, Slots: 128, NT: 8, Workers: 2, ColdStart: true}
	}
	return []workload{
		{
			name: "boot_paper_ring", setupReps: 3,
			why:   "the paper's headline path: a sparse bootstrap at the paper ring, blind rotation about 87% of it",
			setup: func(seed int64, _ string) (instance, error) { return setupBoot(boot, seed, bootLimit) },
		},
		{
			name: "primary_tail", setupReps: 1,
			why:   "what Fig. 4's primary node does while secondaries rotate: prepare and repack, no blind rotation",
			setup: func(seed int64, _ string) (instance, error) { return setupTail(tailR, seed, tailLimit) },
		},
		{
			name: "ckks_chain_paper_ring", setupReps: 3,
			why:   "Table III's basic ops: rotate, add, multiply-relinearize-rescale down the level chain",
			setup: func(seed int64, _ string) (instance, error) { return setupChain(chain, seed, chainLimit) },
		},
		{
			name: "serve_closed", setupReps: 3,
			why: "heapd at saturation: 1 tenant x 2 connections in a closed loop, so same-tenant jobs coalesce",
			setup: func(seed int64, heapd string) (instance, error) {
				return setupServe(serveSpec{tenants: 1, conns: 2, limitMs: closedLimit}, seed, heapd)
			},
		},
		{
			name: "serve_paced", setupReps: 3,
			why: "heapd idle between jobs: 2 tenants on a fixed open-loop schedule, a lone job pays the whole window",
			setup: func(seed int64, heapd string) (instance, error) {
				return setupServe(serveSpec{
					tenants: 2, conns: 1, limitMs: 150,
					period: 250 * time.Millisecond, jitter: 25 * time.Millisecond, budget: time.Second,
				}, seed, heapd)
			},
		},
	}
}
