package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"heap/internal/cluster"
)

var (
	heapdOnce sync.Once
	heapdBin  string
	heapdErr  error
)

// testHeapd builds the daemon once per test binary.
func testHeapd(t *testing.T) string {
	t.Helper()
	heapdOnce.Do(func() {
		dir, err := os.MkdirTemp("", "heapmark-test-")
		if err != nil {
			heapdErr = err
			return
		}
		heapdBin, heapdErr = buildHeapd(dir)
	})
	if heapdErr != nil {
		t.Fatal(heapdErr)
	}
	return heapdBin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if heapdBin != "" {
		os.RemoveAll(filepath.Dir(heapdBin))
	}
	os.Exit(code)
}

func testLimits(ops int) limits {
	return limits{ops: ops, ceiling: time.Now().Add(time.Minute), opTimeout: 20 * time.Second}
}

// TestSmokeEveryWorkload runs all five workloads at toy size, untraced and
// traced, and checks that every operation is correct and every end-to-end
// metric is reported. It asserts nothing about time.
func TestSmokeEveryWorkload(t *testing.T) {
	heapd := testHeapd(t)
	// Per-layer metrics each workload must fill in a traced pass.
	want := map[string][]string{
		"boot_paper_ring":       {"core.prepare_ms", "core.rotate_ms", "core.finish_ms", "rlwe.external_products_per_op", "tfhe.tiles_per_op", "tfhe.key_mb"},
		"primary_tail":          {"core.prepare_ms", "core.finish_ms", "rlwe.merges_per_op", "rlwe.key_switches_per_op", "core.stage_repack_ms"},
		"ckks_chain_paper_ring": {"ckks.rotate_ms", "ckks.mulrelinrescale_ms", "ckks.add_us", "rlwe.key_switches_per_op"},
		"serve_closed":          {"serve.rotate_busy_ms_per_job", "serve.batches_per_job", "cluster.bytes_framed_per_job", "cluster.key_chunks", "rlwe.external_products_per_op"},
		"serve_paced":           {"serve.rotate_busy_ms_per_job", "serve.batches_per_job", "serve.key_upload_s"},
	}
	for _, w := range workloads(true) {
		t.Run(w.name, func(t *testing.T) {
			t0 := time.Now()
			inst, err := w.setup(7, heapd)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			setupS := time.Since(t0).Seconds()
			ref := inst.pass(testLimits(3), nil)
			if ref.Attempted == 0 || ref.failed() != 0 {
				t.Fatalf("untraced pass: %+v", ref.tally)
			}
			for name, v := range endToEnd(setupS, peakRSSMB(inst.rssPID()), &ref) {
				if !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, v)
				}
			}
			tr := newTracer()
			traced := inst.pass(testLimits(3), tr)
			if traced.Attempted != ref.Attempted || traced.failed() != 0 {
				t.Fatalf("traced pass: %+v, untraced attempted %d", traced.tally, ref.Attempted)
			}
			m := make(map[string]float64)
			inst.layers(m, &traced, tr)
			for _, name := range want[w.name] {
				if !(m[name] > 0) {
					t.Errorf("per-layer metric %s = %v, want > 0", name, m[name])
				}
			}
			if gap := m["serve.ledger_gap"]; gap != 0 {
				t.Errorf("heapd ledger gap %v", gap)
			}
			path := filepath.Join(t.TempDir(), "trace.json")
			if err := tr.writeChrome(path, w.name); err != nil {
				t.Fatal(err)
			}
			var doc struct{ TraceEvents []map[string]any }
			b, _ := os.ReadFile(path)
			if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) < traced.Attempted {
				t.Errorf("trace file: %v, %d events for %d operations", err, len(doc.TraceEvents), traced.Attempted)
			}
		})
	}
}

// TestRunWorkload drives one whole untraced run the way main does and checks
// the envelope it appends: every end-to-end metric present and non-zero.
func TestRunWorkload(t *testing.T) {
	w := workloads(true)[2]
	rep, err := runWorkload(w, options{seed: 3, lim: testLimits(5)})
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "set.jsonl")
	if err := rep.appendTo(out); err != nil {
		t.Fatal(err)
	}
	runs, err := readRuns(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range slices.Concat(endToEndDefs, ungatedDefs) {
		if set := runs[w.name]; set == nil || len(set.runs) != 1 || !(set.runs[0].values[d.name] > 0) {
			t.Errorf("%s in the result file: %+v", d.name, set)
		}
	}
	if rep.Reference.Attempted != 5 || rep.Reference.Failed != 0 || !rep.Valid {
		t.Errorf("reference pass %+v, valid %v", rep.Reference, rep.Valid)
	}
}

// inputBytes serializes the first n inputs a local workload generates.
func inputBytes(t *testing.T, inst instance, n int) []byte {
	t.Helper()
	w := inst.(*local)
	w.reset()
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		in := w.next()
		if _, err := in.ct.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		fmt.Fprint(&buf, in.want)
	}
	return buf.Bytes()
}

// TestDeterminism: the same seed gives byte-identical inputs and schedules,
// and identical precision and per-operation counts across two runs; another
// seed gives other inputs.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads(true)[:3] {
		t.Run(w.name, func(t *testing.T) {
			var runs [2]passResult
			var inputs [2][]byte
			for i := range runs {
				inst, err := w.setup(11, "")
				if err != nil {
					t.Fatal(err)
				}
				inputs[i] = inputBytes(t, inst, 3)
				runs[i] = inst.pass(testLimits(3), newTracer())
			}
			if !bytes.Equal(inputs[0], inputs[1]) {
				t.Error("same seed, different inputs")
			}
			if runs[0].maxErr != runs[1].maxErr || runs[0].maxErr == 0 {
				t.Errorf("precision differs between runs: %g vs %g", runs[0].maxErr, runs[1].maxErr)
			}
			if !reflect.DeepEqual(runs[0].counters, runs[1].counters) || len(runs[0].counters) == 0 {
				t.Errorf("counts differ between runs:\n%v\n%v", runs[0].counters, runs[1].counters)
			}
			other, err := w.setup(12, "")
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(inputs[0], inputBytes(t, other, 3)) {
				t.Error("another seed, same inputs")
			}
		})
	}
	t.Run("serve", func(t *testing.T) {
		pool := func(seed int64) []byte {
			tn, _, err := newTenant(seed, 0)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			for _, p := range tn.pool {
				for i := range p.lwes {
					p.lwes[i].WriteTo(&buf)
					p.ref[i].WriteTo(&buf)
				}
			}
			return buf.Bytes()
		}
		if a := pool(11); !bytes.Equal(a, pool(11)) || bytes.Equal(a, pool(12)) {
			t.Error("payload pool does not follow the seed")
		}
		spec := serveSpec{tenants: 2, conns: 1, period: 250 * time.Millisecond, jitter: 25 * time.Millisecond}
		sched := func(seed int64, tenant int) []time.Duration {
			return (&serveInst{spec: spec, seed: seed}).schedule(tenant, limits{seconds: 5})
		}
		a := sched(11, 1)
		if len(a) != 20 || !reflect.DeepEqual(a, sched(11, 1)) || reflect.DeepEqual(a, sched(12, 1)) {
			t.Errorf("schedule does not follow the seed: %d due times", len(a))
		}
		for k, due := range a {
			nominal := spec.jitter + spec.period/2 + time.Duration(k)*spec.period
			if d := due - nominal; d < -spec.jitter || d > spec.jitter {
				t.Errorf("due time %d is %v off its slot", k, d)
			}
		}
	})
}

// TestFailuresLandInFailedShare feeds the accounting a corrupted output and a
// stranded job: both must count as failed, neither as a latency sample.
func TestFailuresLandInFailedShare(t *testing.T) {
	var tl tally

	inst, err := workloads(true)[0].setup(5, "")
	if err != nil {
		t.Fatal(err)
	}
	w := inst.(*local)
	w.reset()
	in := w.next()
	run, ok := w.timed(in, nil, 1, 20*time.Second)
	if !ok || run.err != nil {
		t.Fatalf("bootstrap did not finish: %v", run.err)
	}
	if o, _ := w.judge(in, run); o != correct {
		t.Fatalf("clean output judged %v", o)
	}
	run.out.C0.Limbs[0][3] ^= 1 << 20 // one flipped bit in one coefficient
	o, _ := w.judge(in, run)
	if o != incorrect {
		t.Errorf("corrupted output judged %v, want incorrect", o)
	}
	tl.add(o)

	// A server that completes the join handshake and then never answers.
	tn, _, err := newTenant(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := cluster.ReadFrame(conn, cluster.JoinPayloadBound); err != nil {
			return
		}
		hello := cluster.EncodeHello(cluster.HelloFor(tn.ctx.Boot))
		_ = cluster.WriteFrame(conn, &cluster.Frame{Kind: cluster.FrameJoinAck, Payload: hello})
		var sink [1 << 16]byte
		for {
			if _, err := conn.Read(sink[:]); err != nil {
				return
			}
		}
	}()
	c := &tenantConn{tenant: tn, addr: ln.Addr().String()}
	if err := c.dial(); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	o = c.job(&tn.pool[0], 0, 200*time.Millisecond)
	if o != unfinished {
		t.Errorf("stranded job judged %v, want unfinished", o)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Errorf("stranded job held its connection for %v", d)
	}
	if c.cl != nil {
		t.Error("the stranded job's connection was not closed")
	}
	tl.add(o)

	if tl.failed() != 2 || tl.failedShare() != 1 {
		t.Errorf("tally %+v: want both operations failed", tl)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads(false) {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("workloads: BENCHMARK.json has %v, the program %v", names, have)
	}
	same := func(kind string, listed []metric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEndDefs)
	same("per_layer", doc.PerLayer, perLayerDefs)
	// compare's table carries the file's gate and direction, and a claim
	// bound at least as tight as the gate.
	for _, m := range doc.EndToEnd {
		b, ok := bounds[m.Name]
		if !ok || b.gate != m.Bound || b.higher != (m.Better == "higher") {
			t.Errorf("%s: BENCHMARK.json says bound %v, better %s; compare's table %+v", m.Name, m.Bound, m.Better, b)
		}
		if b.rel > b.gate || b.rel == 0 && b.abs == 0 {
			t.Errorf("%s: claim bound %+v is not within the gate", m.Name, b)
		}
	}
	for _, d := range ungatedDefs {
		if b, ok := bounds[d.name]; !ok || b.gate != 0 || b.rel == 0 {
			t.Errorf("%s: compare's table %+v, want a claim bound and no gate", d.name, b)
		}
	}
	if len(bounds) != len(doc.EndToEnd)+len(ungatedDefs) {
		t.Errorf("compare's table has %d metrics, the program %d", len(bounds), len(doc.EndToEnd)+len(ungatedDefs))
	}
}

// TestKernelPass checks that the kernel pass times every kernel it names.
func TestKernelPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs at the paper ring: about five seconds")
	}
	m := make(map[string]float64)
	if err := kernelPass(m, 3); err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayerDefs {
		layer, _, _ := strings.Cut(d.name, ".")
		kernel := strings.HasSuffix(d.name, "_us") && layer != "ckks" || strings.HasPrefix(d.name, "tfhe.rot_ms")
		if kernel && !(m[d.name] > 0) {
			t.Errorf("%s = %v, want > 0", d.name, m[d.name])
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{3, 1, 4, 2, 5, 10, 9, 8, 7, 6}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("quartiles %v %v median %v", q1, q3, median(v))
	}
	if s := spread(v); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread %v, want 1", s)
	}
	if p := percentile(v, 0.9); p != 9 {
		t.Errorf("p90 %v, want 9", p)
	}
}

// TestCompare drives `compare` over result files: agreement exits 0, a
// regression 1, and anything the runs cannot resolve 2.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	type run struct {
		workload          string
		p25               float64
		invalid           bool
		attempted, failed int
	}
	write := func(name string, runs ...run) string {
		var buf bytes.Buffer
		for i, r := range runs {
			rep := report{Workload: r.workload, Seed: int64(i), Valid: !r.invalid, EndToEnd: map[string]metricValue{}, Ungated: map[string]metricValue{}}
			rep.Reference.Attempted, rep.Reference.Failed = r.attempted, r.failed
			for _, d := range endToEndDefs {
				rep.EndToEnd[d.name] = metricValue{Value: 1, Unit: d.unit}
			}
			for _, d := range ungatedDefs {
				rep.Ungated[d.name] = metricValue{Value: 1, Unit: d.unit}
			}
			rep.EndToEnd["op_p25_ms"] = metricValue{Value: r.p25, Unit: "ms"}
			// Differs by more than its bound from seed to seed and repeats
			// exactly at one seed: only pairing by seed can call that ok.
			rep.EndToEnd["precision_bits"] = metricValue{Value: 10 + float64(i), Unit: "bits"}
			b, _ := json.Marshal(rep)
			buf.Write(append(b, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	boot := func(p25s ...float64) []run {
		var runs []run
		for _, v := range p25s {
			runs = append(runs, run{workload: "boot_paper_ring", p25: v, attempted: 100})
		}
		return runs
	}
	base := write("a.jsonl", boot(100, 101, 99, 100.5, 99.5)...)
	stranded := boot(100, 101, 99, 100.5, 99.5)
	stranded[1].failed, stranded[3].failed = 3, 2 // 1% of 500 attempted
	for _, tc := range []struct {
		name string
		file string
		want int
	}{
		{"agree", write("b.jsonl", boot(101, 100, 102, 100.2, 101.5)...), 0},
		{"within the bound", write("c.jsonl", boot(105, 106, 104, 105.5, 104.5)...), 0},
		{"regressed", write("d.jsonl", boot(110, 111, 109, 110.5, 109.5)...), 1},
		// Worse by 20% under a 10% spread: inside the driver's 25% gate,
		// past the issue's 7%, and every run of B is worse than every run of A.
		{"regressed under noise", write("e.jsonl", boot(114, 126, 120, 125, 115)...), 1},
		{"regressed past the gate", write("f.jsonl", boot(90, 170, 130, 180, 100)...), 1},
		{"unresolved", write("g.jsonl", boot(80, 120, 100, 130, 75)...), 2},
		{"worse but overlapping", write("h.jsonl", boot(95, 125, 110, 130, 100)...), 2},
		{"improved under noise", write("i.jsonl", boot(50, 70, 60, 80, 55)...), 0},
		{"failed share", write("j.jsonl", stranded...), 1},
		{"invalid run in B", write("k.jsonl", append(boot(101, 100, 102, 100.2, 101.5), run{workload: "boot_paper_ring", p25: 100, invalid: true})...), 2},
		{"workload missing from B", write("l.jsonl", run{workload: "primary_tail", p25: 100, attempted: 100}), 2},
	} {
		if got := compareMain([]string{base, tc.file}); got != tc.want {
			t.Errorf("%s: compare exited %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestInvalidRuns: a run that did not measure what it claims is marked
// invalid, for compare to leave out; it reads correct:false to the driver
// only when the program was wrong (heapd's ledger), not when the generator
// ran late.
func TestInvalidRuns(t *testing.T) {
	rep := &report{Valid: true}
	rep.check(&passResult{lagMs: []float64{1, 2, 50, 60}})
	if rep.Valid || len(rep.Notes) == 0 {
		t.Fatalf("generator lag p90 of 60 ms left the run valid: %+v", rep)
	}
	if !rep.line().Correct {
		t.Error("a late generator reads as wrong output")
	}
	rep = &report{Valid: true}
	rep.check(&passResult{counters: map[string]uint64{"jobs_admitted": 5, "jobs_served": 4}})
	if rep.Valid || rep.line().Correct {
		t.Error("a ledger gap left the run valid or correct")
	}
	rep = &report{Valid: true}
	rep.check(&passResult{lagMs: []float64{1, 2}, counters: map[string]uint64{"jobs_admitted": 5, "jobs_served": 5}})
	if !rep.Valid || !rep.line().Correct {
		t.Error("a clean pass was marked invalid")
	}
}
