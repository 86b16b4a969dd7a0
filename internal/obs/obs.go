// Package obs is HEAP's zero-dependency observability layer: span-style
// stage timing, monotonic counters, and gauges for the scheme-switching
// bootstrap pipeline. The paper's whole evaluation (Tables II–VIII) is a
// per-stage cost story — ModSwitch → Extract → BlindRotate → Repack → Add,
// overlapped across eight FPGAs (Fig. 4) — and this package is the software
// side of that ledger: the bootstrapper, merge collector, cluster scheduler,
// and the TFHE blind-rotate loop report where wall-clock time, bytes, and
// NTT counts actually go.
//
// Design constraints, in order:
//
//  1. The disabled path must be free. Every instrumented component holds a
//     Recorder; the default is Nop, whose methods are empty and inlinable.
//     The PR 2/3 AllocsPerRun locks (0 allocs/op for BlindRotate,
//     ExternalProduct, and the merge kernel) run with Nop installed, so the
//     hot path pays at most a handful of static-dispatch-eligible interface
//     calls per kernel — never an allocation.
//  2. Enabled recorders must be safe for the pipeline's real concurrency:
//     spans begin and end on whatever goroutine ran the stage (secondaries'
//     read loops, local rotate workers, merge-tree climbers). Metrics is
//     lock-free (atomics over fixed arrays); Tracer takes one short mutex
//     per event.
//  3. Tokens, not closures. Begin returns an opaque Token the caller hands
//     back to End, so no per-span closure or span object is ever allocated.
//
// Stages on the pipeline lane (LanePipeline) are non-overlapping phases of
// one bootstrap and tile its wall time; the same stage enums on shard lanes
// (lane ≥ 0) time the per-shard work that runs inside those phases. hwsim's
// Fig. 4 overlap schedule is directly comparable to a Tracer timeline of a
// cluster run: one lane per node, blind rotations overlapping the network
// send/recv spans.
package obs

// Stage identifies one pipeline phase of the scheme-switching bootstrap
// (Algorithm 2) or one unit of per-shard work inside a phase.
type Stage uint8

const (
	// StageModSwitch is Algorithm 2 steps 1–2: the exact floor-division
	// 2N·x = q0·α + r over both ciphertext components.
	StageModSwitch Stage = iota
	// StageExtract is the per-coefficient Extract → LWE-KeySwitch →
	// ModulusSwitch loop producing the independent LWE ciphertexts.
	StageExtract
	// StageBlindRotate is step 3. On the pipeline lane it is the wall time
	// of the whole fan-out (local workers and/or cluster nodes); on a shard
	// lane it is one blind rotation.
	StageBlindRotate
	// StageRepack times the merge tree (on the pipeline lane: the portion
	// not already overlapped into the blind-rotate tail).
	StageRepack
	// StageFinish is the bootstrap tail: the ct′ addition, the shared
	// trace, and the p/2N rescale.
	StageFinish
	// StageNetSend times framing + writing one batch to a secondary
	// (shard lanes only).
	StageNetSend
	// StageNetRecv times one batch's accumulator stream read — the
	// network + remote-compute wait of Fig. 4 (shard lanes only).
	StageNetRecv

	NumStages = int(StageNetRecv) + 1
)

var stageNames = [NumStages]string{
	"ModSwitch", "Extract", "BlindRotate", "Repack", "Finish", "NetSend", "NetRecv",
}

func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "Stage(?)"
}

// Counter identifies a monotonic event count.
type Counter uint8

const (
	// CounterNTT counts single-limb forward/inverse NTT transforms issued
	// by the instrumented kernels (key-switch and external-product digit
	// raise and ModDown, input INTTs, merge/finish domain conversions) — the
	// unit the paper's Table V cycle accounting is built from.
	CounterNTT Counter = iota
	// CounterExternalProduct counts RGSW ⊡ RLWE external products (two per
	// BlindRotate iteration for ternary keys, one for binary).
	CounterExternalProduct
	// CounterKeySwitch counts gadget key switches outside external
	// products (automorphisms, relinearizations, LWE dimension switches).
	CounterKeySwitch
	// CounterBlindRotate counts completed blind rotations.
	CounterBlindRotate
	// CounterMerge counts repacking merge-tree node merges.
	CounterMerge
	// CounterLWEKeySwitch counts LWE ciphertexts put through the
	// dimension-reducing key switch of Prepare: each costs
	// N × digits × (n_t+1) multiply-accumulates, the unit of the prepare
	// stage the way a limb transform is the unit of a rotation.
	CounterLWEKeySwitch
	// CounterBytesFramed counts wire-protocol bytes framed (sent or
	// received) by the instrumented endpoint, headers and CRCs included.
	CounterBytesFramed
	// CounterBRKBytesStreamed counts blind-rotate key bytes pulled through
	// the datapath: the per-ciphertext path streams every used RGSW key pair
	// once per rotation, the key-major batch engine once per tile. The ratio
	// of the two is the software measurement of the paper's §V URAM
	// key-reuse factor.
	CounterBRKBytesStreamed
	// CounterBlindRotateTile counts key-major accumulator tiles completed by
	// the batched blind-rotate engine (the unit shard-lane BlindRotate spans
	// are recorded at).
	CounterBlindRotateTile
	// CounterKeyChunks counts unique blind-rotate key chunks accepted and
	// stored by a receiving node. A resumed upload re-counts nothing: the
	// counter equals ceil(blob/chunk) after any number of kill/resume cycles.
	CounterKeyChunks
	// CounterKeyChunkBytes counts the unique key payload bytes behind
	// CounterKeyChunks — the receiver-side measure the hwsim key-traffic
	// cross-check compares against BRK blob size.
	CounterKeyChunkBytes
	// CounterKeyChunkResent counts sender-side key chunk payload bytes
	// re-sent across resume cycles (overlap between what the sender pushed
	// and what the receiver had already acked).
	CounterKeyChunkResent
	// CounterJobsAdmitted counts service jobs accepted by admission control
	// and handed to the coalescer.
	CounterJobsAdmitted
	// CounterJobsRejected counts service jobs turned away non-fatally
	// (rate limit, queue full, deadline budget too small, missing key).
	CounterJobsRejected
	// CounterJobsCoalesced counts jobs that executed in a key-major batch
	// shared with at least one other job of the same tenant — the jobs whose
	// BRK pass through cache was amortized across requests.
	CounterJobsCoalesced
	// CounterServeBatches counts key-major service batches executed (one
	// Acquire + one BlindRotateBatch per batch, regardless of job count).
	CounterServeBatches
	// CounterKeysEvicted counts unpinned tenant keys evicted from the
	// registry to make room under the LRU byte bound.
	CounterKeysEvicted
	// CounterJobsExpired counts admitted jobs whose deadline budget expired
	// while they waited in the coalescing queue; they are rejected at
	// dispatch without touching the key. Together with CounterJobsServed and
	// CounterJobsFailed they partition the admitted jobs, so at quiesce
	// admitted = served + expired + failed — the ledger-consistency
	// invariant the shutdown tests assert.
	CounterJobsExpired
	// CounterJobsServed counts admitted jobs whose full accumulator stream
	// (all FrameAccs plus the FrameBatchEnd) was written back successfully.
	CounterJobsServed
	// CounterJobsFailed counts admitted jobs that terminally failed after
	// admission: their connection died mid-reply or the batch rotation
	// errored.
	CounterJobsFailed

	NumCounters = int(CounterJobsFailed) + 1
)

var counterNames = [NumCounters]string{
	"ntt_limb_transforms", "external_products", "key_switches",
	"blind_rotates", "merges", "lwe_key_switches", "bytes_framed",
	"brk_bytes_streamed", "blind_rotate_tiles",
	"key_chunks", "key_chunk_bytes", "key_chunk_resent_bytes",
	"jobs_admitted", "jobs_rejected", "jobs_coalesced",
	"serve_batches", "keys_evicted",
	"jobs_expired", "jobs_served", "jobs_failed",
}

func (c Counter) String() string {
	if int(c) < NumCounters {
		return counterNames[c]
	}
	return "Counter(?)"
}

// Gauge identifies an instantaneous level tracked by signed deltas.
type Gauge uint8

const (
	// GaugeInFlightShards is the number of LWE indices dispatched to
	// secondaries whose accumulators have not come back yet.
	GaugeInFlightShards Gauge = iota
	// GaugeQueueDepth is the number of LWE indices sitting in the cluster
	// work queue awaiting a worker.
	GaugeQueueDepth
	// GaugeResidentTenants is the number of tenant blind-rotate keys
	// currently resident in the serving registry.
	GaugeResidentTenants

	NumGauges = int(GaugeResidentTenants) + 1
)

var gaugeNames = [NumGauges]string{
	"in_flight_shards", "queue_depth", "resident_tenants",
}

func (g Gauge) String() string {
	if int(g) < NumGauges {
		return gaugeNames[g]
	}
	return "Gauge(?)"
}

// LanePipeline is the lane for the five non-overlapping bootstrap phases;
// lanes ≥ 0 label per-shard work (a cluster node index or a local worker).
const LanePipeline = -1

// Token is an opaque span handle returned by Begin and consumed by End.
// For the built-in recorders it encodes the span's start offset; callers
// must treat it as opaque.
type Token int64

// Recorder receives stage spans, counter increments, and gauge deltas.
// Implementations must be safe for concurrent use: the bootstrap pipeline
// calls them from node read loops, local rotate workers, and merge-tree
// climbers simultaneously. All arguments are scalars so that a no-op
// implementation costs only the interface dispatch — no boxing, no
// closures, no allocation.
type Recorder interface {
	// Begin opens a span for stage s on the given lane (LanePipeline or a
	// shard index ≥ 0) and returns the token to pass to the matching End.
	Begin(s Stage, lane int) Token
	// End closes the span opened by the matching Begin.
	End(s Stage, lane int, t Token)
	// Add increments counter c by n.
	Add(c Counter, n uint64)
	// Gauge applies a signed delta to gauge g.
	Gauge(g Gauge, delta int64)
}

// Nop is the default recorder: every method is an empty leaf call the
// compiler can see through. Instrumented components install it when no
// recorder is configured, so the hot path never branches on nil.
type Nop struct{}

func (Nop) Begin(Stage, int) Token { return 0 }
func (Nop) End(Stage, int, Token)  {}
func (Nop) Add(Counter, uint64)    {}
func (Nop) Gauge(Gauge, int64)     {}

// OrNop returns r, or Nop when r is nil — the normalization every
// instrumented component applies at construction/installation time.
func OrNop(r Recorder) Recorder {
	if r == nil {
		return Nop{}
	}
	return r
}

// multi fans every event out to a fixed set of recorders (e.g. a Metrics
// aggregate plus a Tracer timeline on the same bootstrap). All built-in
// recorders issue tokens as nanosecond offsets from the shared package
// epoch, so the first recorder's Begin token is valid for every End.
type multi struct {
	rs []Recorder
}

func (m multi) Begin(s Stage, lane int) Token {
	var t Token
	for i, r := range m.rs {
		tok := r.Begin(s, lane)
		if i == 0 {
			t = tok
		}
	}
	return t
}

func (m multi) End(s Stage, lane int, t Token) {
	for _, r := range m.rs {
		r.End(s, lane, t)
	}
}

func (m multi) Add(c Counter, n uint64) {
	for _, r := range m.rs {
		r.Add(c, n)
	}
}

func (m multi) Gauge(g Gauge, delta int64) {
	for _, r := range m.rs {
		r.Gauge(g, delta)
	}
}
