GO ?= go

# The tests that hold the limb-level fan-out — the key switch's and key
# generation's — to "width changes nothing but the clock" (internal/rlwe,
# internal/ckks, internal/core); the race and stress lanes pin their P counts.
WIDTH_TESTS = TestWidthChangesNothingButTheClock|TestKeyGenWidthChangesNothing|TestFanOutThroughPublicPaths|TestFanRunsInlineWhenItCannotPay|TestEvaluatorWidthChangesNothing|TestFinishWidthIndependence|TestFanLanesAreExclusive|TestFanRepanicsOnTheCaller|TestMulRelinRescaleMatchesUnfused|TestRotateMatchesPermuteThenSwitch

.PHONY: build test check vet race chaos stress fuzz fuzz-smoke fmt bench-smoke cover serve-smoke purego bench-module

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The second line pins the P count for the tests whose schedule is the
# point — the batch engine's worker-filling tiles, the server's multi-worker
# write-back and its bootstrapper's width, Prepare's LWE key-switch fan-out, the streaming merge
# collector, the evaluation keys' first use from eight goroutines at once, and
# the key switch's limb-level fan-out (the width tests: the
# effective width is capped by the P count, so one P is the inline case) — so
# they race at one, two and four Ps whatever the host has.
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,2,4 -run 'TestBlindRotateBatchMatchesPerCiphertext|TestServiceMultiWorkerTilesReassemble|TestServerWidthIsTheBootstrappers|TestPrepareSparseWorkerIndependence|TestStreamingCollectorMatchesFinish|TestEvaluationKeysFirstUseIsConcurrent|$(WIDTH_TESTS)' ./internal/tfhe/ ./internal/serve/ ./internal/core/ ./internal/rlwe/ ./internal/ckks/

# Pure-Go lane: the build that ships to non-amd64 targets (and amd64 with
# the vector kernels compiled out) must stay green on its own — the scalar
# loops are the only code path there, and `go vet` covers the assembly
# argument layouts via asmdecl on the default lane. The last line takes the
# other road to the scalar loops, the runtime override on the default build,
# through the packages whose tests referee an algebraic path (the ternary
# iteration's monomial products, noise bound and equivalence checks) and the
# two whose per-limb steps the key-switch body is made of (the rescale's
# masked centring against its reference loop, the bit-exactness locks of the
# limb-major body).
purego:
	$(GO) build -tags purego ./...
	$(GO) test -tags purego ./...
	HEAP_NOSIMD=1 $(GO) test -count=1 ./internal/ring/ ./internal/rns/ ./internal/rlwe/ ./internal/tfhe/

# heapmark (bench/) is a module of its own that imports the internal
# packages through a replace directive, so the root's build, vet and test do
# not descend into it: this lane is what notices when an internal API it
# uses changes shape. -short runs every workload at toy size in seconds.
bench-module:
	$(GO) -C bench vet ./...
	$(GO) -C bench test -short ./...

# Fault-injection suite under the race detector: link cuts, stalls, corrupt
# frames, a key-cold node the primary dials (streamed the whole key before
# its first batch), kill-mid-key-upload resume on the next run's link, the
# progress deadline that cuts a wedged or slow node (TestStalledNodeIsCut,
# TestSlowNodeIsCut), and the queue's task and batch sizing.
# Every scenario checks the distributed result bit-exact against a local
# bootstrap and asserts no goroutine leaks. Every node is a serve.Server, so
# the key-cold cases hold the one key-stream receiver to key-done: a cold node
# gets no batch before it, and refuses a done whose CRC is not the offer's.
# The server refuses a frame of a retired kind (the v6 hello before a join,
# the v5 health probe and the v7 graceful leave after one) and drops the
# connection, and its deadline
# rule fails one job of a batch, at its first tile past its budget or its
# first failed write, while the rest of the batch is served; heapd's client
# fails a reply stream whose seq numbers or batch-end count do not add up.
chaos:
	$(GO) test -race -count=1 ./internal/cluster/ -run \
		'TestKill|TestAllSecondariesDead|TestDelayedPeer|TestCorruptLink|TestShortReads|TestContextCancellation|TestChaosMatrix|TestStalledNode|TestSlowNode|TestQueueTasks|TestLocalShare|TestSecondaryBatches|TestWorkQueueFill|TestKeyCold|TestRetiredFrame'
	$(GO) test -race -count=1 ./internal/serve/ -run 'TestServiceRefusesKeyDone|TestServiceRefusesRetiredFrame|TestClientChecksReplyStream|TestServiceCoalescedJobFailsAlone|TestServiceLoneJobGoneStopsBatch'

# Seed-corpus smoke over every fuzz target (plain `go test` runs each
# target's f.Add seeds and committed testdata/fuzz corpora without fuzzing),
# FuzzMACDigitOuter's 4-lane-against-scalar digit MAC among them.
fuzz-smoke:
	$(GO) test -count=1 -run='^Fuzz' ./internal/cluster/ ./internal/rlwe/ ./internal/ring/ ./internal/tfhe/

# Allocation smoke: a short -benchmem pass over the hot kernels. The hard
# 0 allocs/op locks live in the AllocsPerRun tests (TestExternalProductInto
# ZeroAllocs, TestBlindRotateTileZeroAllocs and core's
# TestBlindRotateOneIntoZeroAllocs with a binary and a ternary sub-case each,
# TestNTTZeroAllocs), beside core's count-independent bound on a key-switched
# Prepare (TestPrepareSparseAllocationBound); this tier surfaces ns/op and
# B/op drift on the same kernels so allocation or throughput regressions fail
# fast in review. The first line runs heapbench's
# default mode (every paper table, instant) so the binary is executed, not
# just built, somewhere in `check`.
bench-smoke:
	$(GO) run ./cmd/heapbench >/dev/null
	$(GO) test -run='^$$' -bench='BenchmarkKernel' -benchmem -benchtime=1x .
	$(GO) test -run='^$$' -bench='BenchmarkFinish' -benchmem -benchtime=1x .
	$(GO) test -run='TestExternalProductIntoZeroAllocs|TestExternalProductTwoKeyBudget' ./internal/rlwe/
	$(GO) test -run='TestBlindRotateTileZeroAllocs|TestCMuxIntoZeroAllocs' ./internal/tfhe/
	$(GO) test -run='TestBlindRotateOneIntoZeroAllocs|TestPrepareSparseAllocationBound' ./internal/core/
	$(GO) test -run='TestNTTZeroAllocs' ./internal/ring/
	$(GO) test -run='TestAutomorphismIntoZeroAllocs|TestMergeLevelZeroAllocs|TestTraceZeroAllocs' ./internal/rlwe/

# Service-layer smoke: build the daemon, check that its paper-scale engine
# holds no key, then run under the race detector the in-process acceptance test — two tenants on two connections each queued
# behind a busy executor, with same-key coalescing asserted via the
# jobs_coalesced counter and bit-exact results against local rotations — and
# the overload suite: open-loop arrivals past capacity (bounded queue,
# non-fatal rejections, p99 within budget, zero ledger gap), virtual-clock
# determinism and a closed loop whose ledger balances at quiesce.
serve-smoke:
	$(GO) build ./cmd/heapd
	$(GO) test -count=1 -run 'TestDaemonPaperScaleHoldsNoKey' ./cmd/heapd/
	$(GO) test -race -count=1 -run 'TestServiceCoalescesAcrossConnections|TestServiceAdmissionIsolatesTenants|TestOverloadBoundedQueueWithinBudget|TestOverloadVirtualClockDeterministic|TestClosedLoopServesEverything' ./internal/serve/

# Contention lane: the serving and cluster suites repeated at one and two Ps
# beside three CPU burners, the batch engine and the serving suite (overload,
# ledger and goroutine-leak tests included) at four as well (their tile
# fan-out is the part that depends on the P count).
# Lost wakeups and other liveness bugs that need a goroutine descheduled at the
# wrong instruction show up here in seconds (the wakeup regression tests fail
# by watchdog, the fan-out property test by its barrier), and the hard -timeout
# bounds anything that does hang instead of wedging `go test ./...`. The last
# line is the key switch's limb-level fan-out under the same contention: a
# claim loop that could deadlock or starve when its goroutines are descheduled
# mid-phase would hang there.
# TestBlindRotateNoise is left out of this lane only: it is single-threaded
# arithmetic on fixed seeds — nothing a scheduler can change — and nine
# repetitions of it beside the burners would spend half the timeout.
stress:
	@pids=""; for i in 1 2 3; do ( while :; do :; done ) & pids="$$pids $$!"; done; \
	trap "kill $$pids 2>/dev/null" EXIT; \
	$(GO) test -count=3 -cpu 1,2,4 -timeout 300s -skip 'TestBlindRotateNoise' ./internal/tfhe/ ./internal/serve/ && \
	$(GO) test -count=3 -cpu 1,2 -timeout 300s ./internal/cluster/ && \
	$(GO) test -count=3 -cpu 1,2,4 -timeout 300s -run '$(WIDTH_TESTS)' ./internal/rlwe/ ./internal/ckks/ ./internal/core/

# Per-package statement-coverage gate over the packages that carry the
# correctness burden. Floors sit ~2 points under measured head (core 92.7%,
# cluster 79.1%–80.9% by run, rlwe 91.8%, ckks 90.4%, serve 84.1%, tfhe 82.5%)
# so the gate trips on real coverage loss — a deleted test, an uncovered new
# subsystem — not on noise.
cover:
	@set -e; \
	for spec in internal/core:88 internal/cluster:78 internal/rlwe:87 internal/ckks:88 internal/serve:80 internal/tfhe:80; do \
		pkg=$${spec%%:*}; floor=$${spec##*:}; \
		pct=$$($(GO) test -cover ./$$pkg/ | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "FAIL: no coverage output for $$pkg"; exit 1; fi; \
		echo "coverage $$pkg: $$pct% (floor $$floor%)"; \
		if [ "$$(awk -v p="$$pct" -v f="$$floor" 'BEGIN{print (p>=f)?1:0}')" != 1 ]; then \
			echo "FAIL: $$pkg coverage $$pct% below floor $$floor%"; exit 1; \
		fi; \
	done

# The merge gate: everything must build, vet clean, pass under the race
# detector (the cluster chaos tests plus the concurrent-automorphism and
# shared-key-switcher tests are the concurrency exercise), keep the
# benchmark module building against the internal APIs, survive the
# fault-injection suite, stay live under CPU contention, run every fuzz seed
# corpus, keep the hot kernels allocation-free, prove the serving layer
# coalesces correctly and survives overload with bounded queues, and hold the
# coverage floors. Performance is not gated here: that is heapmark's job
# (BENCHMARK.json, bench/run.sh), run by the merge pipeline on both commits.
check: build vet purego bench-module race chaos stress fuzz-smoke bench-smoke serve-smoke cover

# Short fuzz smoke over the wire-facing decoders; the committed corpora in
# testdata/fuzz/ always run as part of plain `go test`.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzReadFrame -fuzztime=10s ./internal/cluster/
	$(GO) test -run=^$$ -fuzz=FuzzDecodeBatch -fuzztime=10s ./internal/cluster/
	$(GO) test -run=^$$ -fuzz=FuzzDecodeJoin -fuzztime=10s ./internal/cluster/
	$(GO) test -run=^$$ -fuzz=FuzzDecodeKeyOffer -fuzztime=10s ./internal/cluster/
	$(GO) test -run=^$$ -fuzz=FuzzReadCiphertext -fuzztime=10s ./internal/rlwe/
	$(GO) test -run=^$$ -fuzz=FuzzReadLWECiphertext -fuzztime=10s ./internal/rlwe/
	$(GO) test -run=^$$ -fuzz=FuzzReadBlindRotateKey -fuzztime=10s ./internal/tfhe/
	$(GO) test -run=^$$ -fuzz=FuzzVectorVsScalarKernels -fuzztime=10s ./internal/ring/
	$(GO) test -run=^$$ -fuzz=FuzzMACDigitOuter -fuzztime=10s ./internal/ring/

fmt:
	gofmt -l .
