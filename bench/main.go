// Command heapmark is the repository's benchmark: five workloads that stress
// different layers of the HEAP stack, every output checked at decrypt level,
// every metric printed by name and unit, and — with -trace 1 — one ledger of
// per-layer figures from the modular kernels up to a heapd job. README.md in
// this directory says why each workload and metric exists.
//
//	go run . -workload <name|all> -seed N [-seconds S | -ops N] [-trace 1] [-out FILE]
//	go run . compare A.jsonl B.jsonl
//
// BENCHMARK.json's command is run.sh, which builds this program and passes
// --workload --seed --seconds --trace; the program builds the heapd it drives.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"
)

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output: what the driver reads.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// passSummary is one pass's outcome counts, with the sample count that stands
// beside every percentile taken from it.
type passSummary struct {
	tally
	Failed      int     `json:"failed"`
	FailedShare float64 `json:"failed_share"`
	Samples     int     `json:"samples"`
	WallS       float64 `json:"wall_s"`
	// OpTailMs is the highest percentile with ten samples beyond it
	// (OpTailPct says which); informational, absent below twenty samples.
	OpTailMs  float64 `json:"op_tail_ms,omitempty"`
	OpTailPct float64 `json:"op_tail_pct,omitempty"`
}

func summarize(r *passResult) passSummary {
	s := passSummary{
		tally: r.tally, Failed: r.failed(), FailedShare: r.failedShare(),
		Samples: len(r.latMs), WallS: r.wallS,
	}
	s.OpTailMs, s.OpTailPct, _ = tail(r.latMs)
	return s
}

// report is the envelope of one workload run; -out appends it as one line.
type report struct {
	Host     hostInfo       `json:"host"`
	Workload string         `json:"workload"`
	Why      string         `json:"why"`
	Seed     int64          `json:"seed"`
	Trace    bool           `json:"trace"`
	Seconds  float64        `json:"seconds,omitempty"`
	Ops      int            `json:"ops,omitempty"`
	Params   map[string]any `json:"params"`
	// Valid is false when the run did not measure what it claims: the
	// open-loop generator ran late, or heapd's job ledger does not add up.
	// compare leaves such a run out.
	Valid bool `json:"valid"`
	// ledgerOff says heapd's job ledger did not add up. That is the program
	// being wrong, not the measurement, so the run also reads correct:false.
	ledgerOff bool
	Notes     []string `json:"notes,omitempty"`
	// Reference is the untraced pass, the source of EndToEnd. In a traced
	// run it is one third of the length, like the traced pass beside it.
	Reference passSummary            `json:"reference_pass"`
	Traced    *passSummary           `json:"traced_pass,omitempty"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	// Ungated are the end-to-end figures BENCHMARK.json leaves out; compare
	// judges them like the others.
	Ungated   map[string]metricValue `json:"ungated"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	TraceFile string                 `json:"trace_file,omitempty"`
}

func withUnits(defs []metricDef, m map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	return out
}

// options are the command line of one run.
type options struct {
	host      hostInfo
	seed      int64
	lim       limits
	trace     bool
	heapd     string
	traceFile string // where a traced run writes its Chrome trace ("" = nowhere)
}

// runWorkload sets a workload up, runs its pass or passes, and tears it down.
func runWorkload(w workload, opt options) (*report, error) {
	rep := &report{
		Host: opt.host, Workload: w.name, Why: w.why, Seed: opt.seed, Trace: opt.trace,
		Seconds: opt.lim.seconds, Ops: opt.lim.ops, Valid: true,
	}
	var inst instance
	var setups []float64
	for i := 0; i < w.setupReps; i++ {
		if inst != nil {
			// Let go of the previous keys first, or peak RSS counts them twice.
			inst.close()
			inst = nil
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(opt.seed, opt.heapd); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	setupS := median(setups)
	rep.Params = inst.params()

	lim := opt.lim
	if opt.trace {
		lim = lim.third()
	}
	ref := inst.pass(lim, nil)
	rep.Reference = summarize(&ref)
	e2e := endToEnd(setupS, peakRSSMB(inst.rssPID()), &ref)
	rep.EndToEnd, rep.Ungated = withUnits(endToEndDefs, e2e), withUnits(ungatedDefs, e2e)
	rep.check(&ref)
	if !opt.trace {
		return rep, nil
	}

	// The traced pass repeats the reference pass's inputs with spans and
	// counters on; the difference between the two is what tracing costs.
	tr := newTracer()
	traced := inst.pass(lim, tr)
	sum := summarize(&traced)
	rep.Traced = &sum
	rep.check(&traced)
	m := make(map[string]float64)
	if err := kernelPass(m, opt.seed); err != nil {
		return nil, fmt.Errorf("%s: kernel pass: %w", w.name, err)
	}
	inst.layers(m, &traced, tr)
	m["bench.gen_lag_p90_ms"] = percentile(traced.lagMs, 0.9)
	if p50 := median(ref.latMs); p50 > 0 {
		m["bench.trace_overhead_pct"] = 100 * (median(traced.latMs) - p50) / p50
	}
	rep.PerLayer = withUnits(perLayerDefs, m)
	if opt.traceFile != "" {
		if err := tr.writeChrome(opt.traceFile, w.name); err != nil {
			return nil, err
		}
		rep.TraceFile = opt.traceFile
	}
	return rep, nil
}

// check marks the report invalid when a pass did not measure what it claims.
func (rep *report) check(r *passResult) {
	if lag := percentile(r.lagMs, 0.9); lag > maxGenLagMs {
		rep.Valid = false
		rep.Notes = append(rep.Notes, fmt.Sprintf("generator lag p90 %.1f ms exceeds %d ms", lag, maxGenLagMs))
	}
	if gap := ledgerGap(r.counters); gap != 0 {
		rep.Valid, rep.ledgerOff = false, true
		rep.Notes = append(rep.Notes, fmt.Sprintf("heapd ledger gap %d: admitted != served + expired + failed", gap))
	}
	if r.Unfinished > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("%d operation(s) unfinished at their timeout or the run ceiling", r.Unfinished))
	}
}

// print writes the human-readable table and then the driver's result line.
func (rep *report) print() error {
	fmt.Printf("== %s  seed %d  trace %v  (%s)\n", rep.Workload, rep.Seed, rep.Trace, rep.Why)
	fmt.Printf("   host: %d cpu, GOMAXPROCS %d, %s, simd %s, %s, rev %s\n",
		rep.Host.NProc, rep.Host.GOMAXPROCS, rep.Host.CPUModel, rep.Host.SIMD, rep.Host.GoVersion, rep.Host.GitRev)
	table := func(title string, p *passSummary, defs []metricDef, m map[string]metricValue) {
		fmt.Printf("   %s: %d attempted, %d failed (share %.4f), %d samples, %.2f s measured\n",
			title, p.Attempted, p.Failed, p.FailedShare, p.Samples, p.WallS)
		if p.OpTailMs > 0 {
			fmt.Printf("   %-34s %14.4f ms   (p%.1f, informational)\n", "op_tail_ms", p.OpTailMs, p.OpTailPct)
		}
		for _, d := range defs {
			fmt.Printf("   %-34s %14.4f %s\n", d.name, m[d.name].Value, d.unit)
		}
	}
	table("untraced pass", &rep.Reference, endToEndDefs, rep.EndToEnd)
	for _, d := range ungatedDefs {
		fmt.Printf("   %-34s %14.4f %s   (not in BENCHMARK.json)\n", d.name, rep.Ungated[d.name].Value, d.unit)
	}
	if rep.Trace {
		table("traced pass", rep.Traced, perLayerDefs, rep.PerLayer)
	}
	for _, n := range rep.Notes {
		fmt.Printf("   note: %s\n", n)
	}
	b, err := json.Marshal(rep.line())
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// line is what the driver reads: the end-to-end metrics of an untraced run,
// the per-layer metrics of a traced one. correct is about the program: every
// output right and heapd's ledger adding up. A generator that ran late makes
// the run invalid for compare, but its outputs were right and its lateness is
// in the latencies, which count from the due time; calling it incorrect would
// tell the driver the program computed something wrong.
func (rep *report) line() resultLine {
	if rep.Trace {
		return resultLine{
			Correct: !rep.ledgerOff && rep.Reference.Incorrect+rep.Traced.Incorrect == 0, Attempted: rep.Traced.Attempted,
			Failed: rep.Traced.Failed, Metrics: rep.PerLayer,
		}
	}
	return resultLine{
		Correct: !rep.ledgerOff && rep.Reference.Incorrect == 0, Attempted: rep.Reference.Attempted,
		Failed: rep.Reference.Failed, Metrics: rep.EndToEnd,
	}
}

// appendTo adds the report to a JSON-lines result file.
func (rep *report) appendTo(path string) error {
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runCeiling is the hard wall-clock limit of one workload's run: no pass
// starts an operation after it, and a watchdog ends the process 20 s later.
// It leaves that margin inside the 180 s the driver allows a run.
const runCeiling = 150 * time.Second

// buildHeapd compiles the daemon under test from the repository's source, the
// one way heapmark and its tests come by it. Relinking takes half a second.
func buildHeapd(dir string) (string, error) {
	bin := filepath.Join(dir, "heapd")
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "heap/cmd/heapd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build heapd: %v\n%s", err, out)
	}
	return bin, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain())
}

func benchMain() int {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Int64("seed", 1, "seed of keys, inputs and schedules")
		seconds = flag.Float64("seconds", 15, "measure each workload for this long")
		ops     = flag.Int("ops", 0, "run exactly this many operations per client instead of -seconds")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics, both passes at one third length")
		out     = flag.String("out", "", "append each workload's result envelope to this JSON-lines file")
	)
	flag.Parse()
	if *ops < 0 || *seconds <= 0 || flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}

	var selected []workload
	for _, w := range workloads(false) {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "heapmark: unknown workload %q\n", *name)
		return 2
	}
	dir, err := os.MkdirTemp("", "heapmark-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "heapmark:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	heapd, err := buildHeapd(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "heapmark:", err)
		return 1
	}

	code, host := 0, readHost()
	for _, w := range selected {
		opt := options{host: host, seed: *seed, trace: *trace == 1, heapd: heapd}
		opt.lim = limits{ops: *ops, ceiling: time.Now().Add(runCeiling), opTimeout: 30 * time.Second}
		if *ops == 0 {
			opt.lim.seconds = *seconds
		}
		if opt.trace && *out != "" {
			opt.traceFile = fmt.Sprintf("%s.%s.seed%d.trace.json", strings.TrimSuffix(*out, filepath.Ext(*out)), w.name, *seed)
		}
		// Last resort against a hang outside any operation's own timeout.
		// Exiting kills the heapd child too (it is started with Pdeathsig).
		watchdog := time.AfterFunc(runCeiling+20*time.Second, func() {
			fmt.Fprintf(os.Stderr, "heapmark: %s still running past its ceiling; giving up\n", w.name)
			os.Exit(3)
		})
		rep, err := runWorkload(w, opt)
		watchdog.Stop()
		if err == nil {
			err = rep.print()
		}
		if err == nil && *out != "" {
			err = rep.appendTo(*out)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "heapmark:", err)
			code = 1
		}
	}
	return code
}
