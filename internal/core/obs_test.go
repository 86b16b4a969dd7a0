package core

import (
	"bytes"
	"testing"
	"time"

	"heap/internal/obs"
	"heap/internal/ring"
	"heap/internal/rlwe"
	"heap/internal/tfhe"
)

// TestBootstrapTraceAccounting locks the observability contract of a local
// bootstrap: the five pipeline-lane phases tile the end-to-end wall time
// (their sum must agree within 5%), the emitted Chrome trace parses and
// carries the same accounting, and the kernel counters report exactly the
// work Algorithm 2 prescribes for the chosen n_br.
func TestBootstrapTraceAccounting(t *testing.T) {
	params, cl, _, bt := testSetup(t, 4)
	const count = 64
	v := testVector(params.Slots)
	ct := cl.EncryptAtLevel(v, 1)

	met := obs.NewMetrics()
	tracer := obs.NewTracer()
	bt.SetRecorder(obs.Combine(met, tracer))
	start := time.Now()
	out := bt.BootstrapSparse(ct, count)
	wallMs := float64(time.Since(start).Microseconds()) / 1e3
	bt.SetRecorder(nil)
	if out == nil {
		t.Fatal("bootstrap returned nil")
	}

	pipeMs := met.PipelineTotalMs()
	if diff := pipeMs - wallMs; diff < -0.05*wallMs || diff > 0.05*wallMs {
		t.Errorf("pipeline phases sum to %.3f ms, measured wall %.3f ms (>5%% apart)", pipeMs, wallMs)
	}

	snap := met.Snapshot()
	for _, stage := range []string{"ModSwitch", "Extract", "BlindRotate", "Repack", "Finish"} {
		st, ok := snap.Pipeline[stage]
		if !ok || st.Count != 1 {
			t.Errorf("pipeline stage %s: want exactly one span, got %+v", stage, st)
		}
	}
	// Shard-lane BlindRotate spans are per key-major tile, not per rotation
	// (the engine streams the BRK once per tile); the exact rotation count
	// lives in the blind_rotates counter.
	tiles := uint64((count + tfhe.Tile - 1) / tfhe.Tile)
	if sh := snap.Shards["BlindRotate"]; uint64(sh.Count) != tiles {
		t.Errorf("shard-lane blind-rotate tile spans: got %d, want %d", sh.Count, tiles)
	}

	if got := met.Counter(obs.CounterBlindRotate); got != count {
		t.Errorf("blind_rotates = %d, want %d", got, count)
	}
	if got := met.Counter(obs.CounterBlindRotateTile); got != tiles {
		t.Errorf("blind_rotate_tiles = %d, want %d", got, tiles)
	}
	if met.Counter(obs.CounterBRKBytesStreamed) == 0 {
		t.Error("brk_bytes_streamed counter did not move")
	}
	if got := met.Counter(obs.CounterLWEKeySwitch); got != count {
		t.Errorf("lwe_key_switches = %d, want %d (one per prepared LWE ciphertext)", got, count)
	}
	if got := met.Counter(obs.CounterMerge); got != count-1 {
		t.Errorf("merges = %d, want %d (one per merge-tree node)", got, count-1)
	}
	// Ternary-key blind rotation: two CMux external products per nonzero
	// mask element — data-dependent, but never zero for a real ciphertext.
	if met.Counter(obs.CounterExternalProduct) == 0 || met.Counter(obs.CounterNTT) == 0 {
		t.Error("external-product / NTT counters did not move")
	}
	for g := obs.Gauge(0); int(g) < obs.NumGauges; g++ {
		if v := met.GaugeValue(g); v != 0 {
			t.Errorf("gauge %s = %d after completion, want 0", g, v)
		}
	}

	var buf bytes.Buffer
	if _, err := tracer.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := obs.ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if diff := tr.PipelineTotalMs() - wallMs; diff < -0.05*wallMs || diff > 0.05*wallMs {
		t.Errorf("trace pipeline spans sum to %.3f ms, measured wall %.3f ms (>5%% apart)",
			tr.PipelineTotalMs(), wallMs)
	}
	var pipeSpans, shardSpans int
	for _, ev := range tr.TraceEvents {
		switch {
		case ev.Phase == "X" && ev.Cat == "pipeline":
			pipeSpans++
			if ev.Tid != 0 {
				t.Errorf("pipeline span %q on tid %d, want 0", ev.Name, ev.Tid)
			}
		case ev.Phase == "X" && ev.Cat == "shard":
			shardSpans++
			if ev.Tid < 1 {
				t.Errorf("shard span %q on tid %d, want >= 1", ev.Name, ev.Tid)
			}
		}
	}
	if pipeSpans != 5 {
		t.Errorf("trace has %d pipeline spans, want 5", pipeSpans)
	}
	if uint64(shardSpans) != tiles {
		t.Errorf("trace has %d shard spans, want %d (one per key-major tile)", shardSpans, tiles)
	}
}

// TestRecorderDefaultsToNop locks that an uninstrumented bootstrapper carries
// the Nop recorder (never nil) and that SetRecorder(nil) restores it.
func TestRecorderDefaultsToNop(t *testing.T) {
	_, _, _, bt := testSetup(t, 1)
	if _, ok := bt.Recorder().(obs.Nop); !ok {
		t.Fatalf("fresh bootstrapper recorder is %T, want obs.Nop", bt.Recorder())
	}
	bt.SetRecorder(obs.NewMetrics())
	if _, ok := bt.Recorder().(*obs.Metrics); !ok {
		t.Fatalf("recorder after SetRecorder is %T, want *obs.Metrics", bt.Recorder())
	}
	bt.SetRecorder(nil)
	if _, ok := bt.Recorder().(obs.Nop); !ok {
		t.Fatalf("recorder after SetRecorder(nil) is %T, want obs.Nop", bt.Recorder())
	}
}

// TestFailedFinishStillRecordsRepack: a Finish that fails inside the merge
// fan-out used to return before ending its Repack span, so the time a failed
// repack burned never reached the metrics or the trace and the phases stopped
// summing to wall exactly when someone was debugging the failure. One Repack
// observation must be recorded whether one worker or several run into the
// nil accumulator, and no Finish stage may follow it.
func TestFailedFinishStillRecordsRepack(t *testing.T) {
	params, cl, _, bt := testSetup(t, 1)
	const count = 8
	prep := bt.PrepareSparse(cl.EncryptAtLevel(testVector(params.Slots), 1), count)
	for _, workers := range []int{1, 3} {
		bt.Cfg.Workers = workers
		accs := make([]*rlwe.Ciphertext, count)
		for i := range accs {
			accs[i] = bt.NewAccumulator()
			accs[i].IsNTT = false
		}
		accs[count/2] = nil
		met := obs.NewMetrics()
		bt.SetRecorder(met)
		_, err := bt.Finish(prep, accs)
		bt.SetRecorder(nil)
		if err == nil {
			t.Fatalf("workers=%d: Finish accepted a nil accumulator mid-slice", workers)
		}
		snap := met.Snapshot()
		if st := snap.Pipeline["Repack"]; st.Count != 1 {
			t.Errorf("workers=%d: failed Finish recorded %d Repack spans, want 1", workers, st.Count)
		}
		if st, ok := snap.Pipeline["Finish"]; ok && st.Count != 0 {
			t.Errorf("workers=%d: failed repack still ran the Finish stage (%d spans)", workers, st.Count)
		}
	}
}

// TestFinishTransformBudget pins Finish's limb-transform ledger on
// coefficient-form accumulators: count−1 merges and log2(N/count) trace steps
// at the merge budget (rlwe's TestMergeTransformBudget), plus the one NTT of
// the packed pair's limbs the rescale by p keeps (it runs in coefficients,
// before the transform) — and no per-accumulator term, the 2·level·count the
// NTT-domain repack spent at the door.
func TestFinishTransformBudget(t *testing.T) {
	params, cl, _, bt := testSetup(t, 2)
	const count = 16
	prep := bt.PrepareSparse(cl.EncryptAtLevel(testVector(params.Slots), 1), count)
	s := ring.NewSampler(70)
	accs := make([]*rlwe.Ciphertext, count)
	for i := range accs {
		accs[i] = bt.NewAccumulator()
		for l := range accs[i].C0.Limbs {
			s.UniformPoly(params.QBasis.Rings[l], accs[i].C0.Limbs[l])
			s.UniformPoly(params.QBasis.Rings[l], accs[i].C1.Limbs[l])
		}
		accs[i].IsNTT = false
	}
	met := obs.NewMetrics()
	bt.SetRecorder(met)
	_, err := bt.Finish(prep, accs)
	bt.SetRecorder(nil)
	if err != nil {
		t.Fatal(err)
	}
	level, nP := params.MaxLevel(), len(params.P)
	perSwitch := params.DigitsAtLevel(level)*(level+nP) + 2*(nP+level)
	traceSteps := 0
	for c := count; c < params.N(); c <<= 1 {
		traceSteps++
	}
	want := uint64((count-1+traceSteps)*perSwitch + 2*(level-1))
	if got := met.Counter(obs.CounterNTT); got != want {
		t.Errorf("Finish recorded %d limb transforms, want %d = (%d merges + %d trace steps) × %d + one NTT of 2×%d limbs",
			got, want, count-1, traceSteps, perSwitch, level-1)
	}
	if got := met.Counter(obs.CounterKeySwitch); got != uint64(count-1+traceSteps) {
		t.Errorf("key_switches = %d, want %d", got, count-1+traceSteps)
	}
}

// TestFinishWidthIndependence runs Finish — the trace, the closing transforms
// and the rescale are the parts that fan their limb tasks over Cfg.Workers —
// at N=2^10, the smallest ring that fans out, on bootstrappers with the same
// keys and 1, 2 and 5 workers: same accumulators in, same words and the same
// transform and key-switch counts out.
func TestFinishWidthIndependence(t *testing.T) {
	const count = 8
	s := ring.NewSampler(71)
	var accs []*rlwe.Ciphertext
	var want *rlwe.Ciphertext
	var wantNTT, wantKS uint64
	for _, workers := range []int{1, 2, 5} {
		params, cl, _, bt := testSetupAt(t, 10, workers)
		if accs == nil {
			accs = make([]*rlwe.Ciphertext, count)
			for i := range accs {
				accs[i] = bt.NewAccumulator()
				for l := range accs[i].C0.Limbs {
					s.UniformPoly(params.QBasis.Rings[l], accs[i].C0.Limbs[l])
					s.UniformPoly(params.QBasis.Rings[l], accs[i].C1.Limbs[l])
				}
				accs[i].IsNTT = false
			}
		}
		prep := bt.PrepareSparse(cl.EncryptAtLevel(testVector(params.Slots), 1), count)
		in := make([]*rlwe.Ciphertext, count)
		for i := range in {
			in[i] = accs[i].CopyNew() // Finish consumes its accumulators
		}
		met := obs.NewMetrics()
		bt.SetRecorder(met)
		got, err := bt.Finish(prep, in)
		bt.SetRecorder(nil)
		if err != nil {
			t.Fatal(err)
		}
		ntt, ks := met.Counter(obs.CounterNTT), met.Counter(obs.CounterKeySwitch)
		if want == nil {
			want, wantNTT, wantKS = got, ntt, ks
			continue
		}
		if ntt != wantNTT || ks != wantKS {
			t.Errorf("%d workers: %d limb transforms and %d key switches, one worker recorded %d and %d", workers, ntt, ks, wantNTT, wantKS)
		}
		if got.Level() != want.Level() || got.IsNTT != want.IsNTT || got.Scale != want.Scale ||
			!params.QBasis.Equal(want.C0, got.C0) || !params.QBasis.Equal(want.C1, got.C1) {
			t.Fatalf("%d workers: Finish differs from one worker's", workers)
		}
	}
}
