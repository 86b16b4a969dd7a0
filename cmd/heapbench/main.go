// Command heapbench regenerates the paper's evaluation tables (II–VIII)
// from the calibrated hardware model, the workload schedules, and the
// published baseline numbers:
//
//	heapbench            # print every table
//	heapbench -table 5   # print one table
//	heapbench -keys      # §III-C key-traffic accounting
//	heapbench -sweep     # FPGA-count scaling sweep for the bootstrap
//	heapbench -cluster   # fault-tolerant distributed bootstrap demo
//	heapbench -cluster -churn
//	                     # self-healing elastic cluster demo: a stalled node
//	                     # cut by the progress deadline, a cold node joining
//	                     # mid-run, a kill mid-key-upload with a chunk-exact resume
//	                     # after rejoin, and a graceful drain — each run
//	                     # checked bit-exact against a local bootstrap
//	heapbench -trace out.json
//	                     # run a local bootstrap with the observability layer
//	                     # on and write a Chrome trace_event timeline (open in
//	                     # chrome://tracing or Perfetto); also prints the
//	                     # expvar-style metrics snapshot
//	heapbench -cluster -trace out.json
//	                     # same, for the distributed fault-injection demo:
//	                     # one timeline lane per node/worker, Fig. 4 style
//
// The -cpuprofile and -memprofile flags write pprof profiles of whichever
// mode runs — the intended use is profiling the blind-rotation hot path via
// -cluster (e.g. heapbench -cluster -cpuprofile cpu.out -memprofile mem.out).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"heap"
	"heap/internal/cluster"
	"heap/internal/experiments"
	"heap/internal/hwsim"
	"heap/internal/obs"
	"heap/internal/ring"
	"heap/internal/rlwe"
	"heap/internal/serve"
	"heap/internal/tfhe"
)

func main() {
	table := flag.Int("table", 0, "print a single table (2-8)")
	keys := flag.Bool("keys", false, "print the §III-C key-material report")
	area := flag.Bool("area", false, "print the §VI-B area/power comparison")
	sweep := flag.Bool("sweep", false, "sweep bootstrap latency over FPGA counts")
	chaos := flag.Bool("cluster", false, "run an in-process distributed bootstrap with fault injection")
	churn := flag.Bool("churn", false, "with -cluster: elastic membership churn demo (wedged node cut/join/leave/kill mid-key-upload)")
	trace := flag.String("trace", "", "write a Chrome trace_event timeline of the bootstrap to this file (combine with -cluster for the distributed demo)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected mode to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the selected mode to this file")
	flag.Parse()

	obs.SetISA(ring.SIMDLevel())

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // flush the final allocation state into the profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	switch {
	case *chaos && *churn:
		if err := runChurn(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *chaos:
		if err := runCluster(*trace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *trace != "":
		if err := runTraceLocal(*trace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *keys:
		fmt.Print(experiments.KeyReport())
	case *area:
		fmt.Print(experiments.AreaReport())
	case *sweep:
		fmt.Println("Scheme-switching bootstrap latency vs number of FPGAs (fully packed, n=4096)")
		fmt.Printf("%6s %12s %12s %12s\n", "FPGAs", "step3 (ms)", "comm (ms)", "total (ms)")
		for _, n := range []int{1, 2, 4, 8, 16} {
			s := hwsim.NewSystem(hwsim.AlveoU280(), hwsim.PaperParams(), n)
			b := s.Bootstrap(1 << 12)
			fmt.Printf("%6d %12.4f %12.4f %12.4f\n", n, b.Step3Ms, b.CommMs, b.TotalMs)
		}
	case *table != 0:
		var out string
		switch *table {
		case 2:
			out = experiments.Table2()
		case 3:
			out = experiments.Table3()
		case 4:
			out = experiments.Table4()
		case 5:
			out = experiments.Table5()
		case 6:
			out = experiments.Table6()
		case 7:
			out = experiments.Table7()
		case 8:
			out = experiments.Table8()
		default:
			fmt.Fprintln(os.Stderr, "tables 2-8 are available")
			os.Exit(2)
		}
		fmt.Print(out)
	default:
		fmt.Print(experiments.All())
	}
}

// writeTraceAndSnapshot flushes a tracer timeline to tracePath and prints the
// metrics snapshot plus the instrumented-vs-measured accounting: the sum of
// the pipeline-lane phase durations must agree with the end-to-end wall time
// (they tile it; the conformance tests hold the gap under 5%).
func writeTraceAndSnapshot(tracePath string, tracer *obs.Tracer, met *obs.Metrics, wall time.Duration) error {
	f, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	if _, err := tracer.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("metrics snapshot:\n%s", met.JSON())
	fmt.Printf("pipeline phases sum to %.1f ms of %.1f ms measured; timeline -> %s\n",
		met.PipelineTotalMs(), float64(wall.Microseconds())/1e3, tracePath)
	return nil
}

// runTraceLocal runs one fully local bootstrap with the observability layer
// installed (Metrics aggregate + Chrome trace timeline) and writes both out.
func runTraceLocal(tracePath string) error {
	ctx, err := heap.NewContext(heap.TestContextConfig())
	if err != nil {
		return err
	}
	v := make([]complex128, ctx.Params.Slots)
	for i := range v {
		v[i] = complex(0.4, 0)
	}
	ct := ctx.Client.EncryptAtLevel(v, 1)

	met := obs.NewMetrics()
	tracer := obs.NewTracer()
	ctx.Boot.SetRecorder(obs.Combine(met, tracer))
	start := time.Now()
	out := ctx.Boot.Bootstrap(ct)
	wall := time.Since(start)
	ctx.Boot.SetRecorder(nil)

	fmt.Printf("local bootstrap: %v; slot0 = %.3f (want 0.400)\n",
		wall.Round(time.Millisecond), real(ctx.Decrypt(out)[0]))
	return writeTraceAndSnapshot(tracePath, tracer, met, wall)
}

// runChurn demonstrates the self-healing elastic cluster in three acts, each
// checked bit-exact against a purely local bootstrap of the same ciphertext:
//
//  1. Progress deadline: a node wedges right after its handshake, delivers no
//     tile of accumulators within twice the slowest local tile, and is cut;
//     its indices are reassigned to the local workers.
//  2. Kill mid-key-upload: a key-cold node joins through the membership
//     listener, the chunked BRK upload starts, and its link is cut a few
//     chunks in. The failed key upload marks the member dead, and the run
//     completes without it.
//  3. Resume + graceful drain: the dead node rejoins under the same name —
//     its key receiver survived the connection, so the upload resumes from the
//     last acked chunk instead of restarting — while another node joins with
//     a pending leave request and is drained. The receiver-side unique-chunk
//     counters prove no byte of the key was re-received.
func runChurn() error {
	mk := func(coldStart bool) (*heap.Context, error) {
		cfg := heap.TestContextConfig()
		cfg.Bootstrap.ColdStart = coldStart
		return heap.NewContext(cfg)
	}
	// One local worker on the primary leaves most of the queue to the
	// joiners of acts 2 and 3.
	pcfg := heap.TestContextConfig()
	pcfg.Bootstrap.Workers = 1
	primary, err := heap.NewContext(pcfg)
	if err != nil {
		return err
	}
	v := make([]complex128, primary.Params.Slots)
	for i := range v {
		v[i] = complex(0.4, 0)
	}
	ct := primary.Client.EncryptAtLevel(v, 1)
	reference := primary.Boot.Bootstrap(ct.CopyNew())
	check := func(tag string, out *rlwe.Ciphertext) error {
		for i := 0; i < out.Level(); i++ {
			for j, c := range out.C0.Limbs[i] {
				if c != reference.C0.Limbs[i][j] || out.C1.Limbs[i][j] != reference.C1.Limbs[i][j] {
					return fmt.Errorf("%s: limb %d coeff %d differs from local bootstrap", tag, i, j)
				}
			}
		}
		fmt.Printf("%s: bit-identical to the local bootstrap\n", tag)
		return nil
	}
	met := obs.NewMetrics()
	primary.Boot.SetRecorder(met)
	defer primary.Boot.SetRecorder(nil)
	pri := &cluster.Primary{Boot: primary.Boot}

	// Act 1: a wedged node cut by the progress deadline.
	fmt.Println("--- act 1: a wedged node is cut by the progress deadline ---")
	wedged, err := mk(false)
	if err != nil {
		return err
	}
	cp, cs := net.Pipe()
	stall := cluster.NewFaultConn(cs, cluster.FaultPlan{Seed: 3, StallWriteAfter: 48})
	servWedged := make(chan error, 1)
	go func() { servWedged <- serve.NewServer(wedged.Boot, serve.Config{}).ServeConn(stall) }()
	opts := cluster.DefaultOptions()
	start := time.Now()
	out, stats, err := pri.Bootstrap(context.Background(), ct.CopyNew(),
		[]*cluster.Node{{Conn: cp, Name: "fpga-wedged"}}, nil, opts)
	if err != nil {
		return err
	}
	fmt.Printf("%d of %d indices reassigned away from the stalled node in %v (batch timeout %v)\nfailed node: %v\n%s",
		stats.Reassigned, stats.Total, time.Since(start).Round(time.Millisecond), opts.BatchTimeout,
		stats.NodeErrors(), stats)
	if !stats.Nodes[0].Failed {
		return fmt.Errorf("the wedged node was not cut")
	}
	if err := check("wedged-node run", out); err != nil {
		return err
	}
	_ = stall.Close()
	_ = cp.Close()
	_ = cs.Close()
	<-servWedged

	// Act 2: elastic membership — a warm node and a cold node join, the cold
	// node's link is cut mid-key-upload.
	fmt.Println("--- act 2: cold join, link cut mid-key-upload ---")
	m := cluster.NewMembership()
	l := cluster.NewPipeListener()
	acceptDone := make(chan struct{})
	go func() { _ = pri.AcceptJoins(m, l); close(acceptDone) }()
	waitState := func(name string, want cluster.MemberState) error {
		deadline := time.Now().Add(10 * time.Second)
		for {
			if st, ok := m.State(name); ok && st == want {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("node %q never became %v", name, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	warm, err := mk(false)
	if err != nil {
		return err
	}
	warmConn, err := l.Dial()
	if err != nil {
		return err
	}
	servWarm := make(chan error, 1)
	go func() { servWarm <- serve.NewServer(warm.Boot, serve.Config{}).JoinAndServe(warmConn, "fpga-warm") }()

	cold, err := mk(true)
	if err != nil {
		return err
	}
	coldMet := obs.NewMetrics()
	coldNode := serve.NewServer(cold.Boot, serve.Config{Recorder: coldMet})
	const chunkBytes = 64 << 10
	blobSize := tfhe.BRKBlobBytes(primary.Params.Parameters, cluster.LWEDim(primary.Boot), primary.Boot.BinaryKey())
	conn1, err := l.Dial()
	if err != nil {
		return err
	}
	cut := cluster.NewFaultConn(conn1, cluster.FaultPlan{Seed: 13, CutReadAfter: 3*chunkBytes + 4096})
	servCold1 := make(chan error, 1)
	go func() { servCold1 <- coldNode.JoinAndServe(cut, "fpga-cold") }()
	if err := waitState("fpga-warm", cluster.MemberActive); err != nil {
		return err
	}
	if err := waitState("fpga-cold", cluster.MemberActive); err != nil {
		return err
	}

	eopts := cluster.DefaultOptions()
	eopts.KeyChunkBytes = chunkBytes
	out, stats, err = pri.Bootstrap(context.Background(), ct.CopyNew(), nil, m, eopts)
	if err != nil {
		return err
	}
	if err := <-servCold1; err == nil {
		return fmt.Errorf("the injected link cut never fired")
	}
	_ = cut.Close()
	if err := waitState("fpga-cold", cluster.MemberDead); err != nil {
		return err
	}
	fmt.Printf("link cut after %d unique chunks (%d of %d key bytes received); member marked dead\n%s",
		coldMet.Counter(obs.CounterKeyChunks), coldMet.Counter(obs.CounterKeyChunkBytes), blobSize, stats)
	if err := check("churn run", out); err != nil {
		return err
	}

	// Act 3: the dead node rejoins under the same name and the upload resumes
	// from the last acked chunk; a third node joins mid-run with a pending
	// leave request and is drained without completing work.
	fmt.Println("--- act 3: rejoin + resumed upload, graceful drain ---")
	conn2, err := l.Dial()
	if err != nil {
		return err
	}
	servCold2 := make(chan error, 1)
	go func() { servCold2 <- coldNode.JoinAndServe(conn2, "fpga-cold") }()
	leaverCtx, err := mk(false)
	if err != nil {
		return err
	}
	leaver := serve.NewServer(leaverCtx.Boot, serve.Config{})
	leaver.RequestLeave()
	lconn, err := l.Dial()
	if err != nil {
		return err
	}
	servLeaver := make(chan error, 1)
	go func() { servLeaver <- leaver.JoinAndServe(lconn, "fpga-leaver") }()
	if err := waitState("fpga-cold", cluster.MemberActive); err != nil {
		return err
	}
	if err := waitState("fpga-leaver", cluster.MemberActive); err != nil {
		return err
	}
	out, stats, err = pri.Bootstrap(context.Background(), ct.CopyNew(), nil, m, eopts)
	if err != nil {
		return err
	}
	fmt.Print(stats)
	if err := check("resume run", out); err != nil {
		return err
	}

	// The resume accounting: across both connections every unique chunk was
	// received exactly once; stop-and-wait leaves at most one chunk of
	// sender-side overlap.
	uniq := coldMet.Counter(obs.CounterKeyChunks)
	uniqBytes := coldMet.Counter(obs.CounterKeyChunkBytes)
	resent := met.Counter(obs.CounterKeyChunkResent)
	fmt.Printf("key streaming: %d unique chunks, %d of %d bytes (%.0f%% warm), %d bytes re-sent across the kill\n",
		uniq, uniqBytes, blobSize, 100*float64(uniqBytes)/float64(blobSize), resent)
	if uniqBytes == uint64(blobSize) && resent <= chunkBytes {
		fmt.Println("resume OK: the kill cost at most one in-flight chunk, no full re-send")
	}
	for _, name := range []string{"fpga-warm", "fpga-cold", "fpga-leaver"} {
		st, _ := m.State(name)
		fmt.Printf("  member %-12s %v\n", name, st)
	}

	_ = lconn.Close()
	_ = conn2.Close()
	_ = warmConn.Close()
	<-servCold2
	<-servLeaver
	<-servWarm
	_ = l.Close()
	<-acceptDone
	return nil
}

// runCluster runs the parallelized bootstrap (§V) across three in-process
// nodes connected by byte pipes, with one link deliberately cut mid-stream
// to exercise the reassignment path, and checks the result against a
// purely local bootstrap of the same ciphertext (they must be bit-identical,
// since blind rotations are deterministic and node-placement-independent).
// With a non-empty tracePath the distributed run is recorded by the
// observability layer: one timeline lane per node and local worker.
func runCluster(tracePath string) error {
	mk := func() (*heap.Context, error) { return heap.NewContext(heap.TestContextConfig()) }
	primary, err := mk()
	if err != nil {
		return err
	}
	v := make([]complex128, primary.Params.Slots)
	for i := range v {
		v[i] = complex(0.4, 0)
	}
	// Bootstrap is deterministic in the input ciphertext, so the same ct
	// bootstrapped locally and across the cluster must agree bit for bit.
	ct := primary.Client.EncryptAtLevel(v, 1)
	reference := primary.Boot.Bootstrap(ct)

	nodes := make([]*cluster.Node, 2)
	for i := range nodes {
		sec, err := mk()
		if err != nil {
			return err
		}
		local, remote := net.Pipe()
		go func() { _ = serve.NewServer(sec.Boot, serve.Config{}).ServeConn(remote) }()
		nodes[i] = &cluster.Node{Conn: local, Name: fmt.Sprintf("fpga-%d", i)}
	}
	// Cut node 0's link after 8 KiB of accumulator traffic: its remaining
	// LWE indices are reassigned to node 1 and the primary's local workers.
	nodes[0].Conn = cluster.NewFaultConn(nodes[0].Conn, cluster.FaultPlan{Seed: 42, CutReadAfter: 8 << 10})

	var (
		met    *obs.Metrics
		tracer *obs.Tracer
	)
	if tracePath != "" {
		met, tracer = obs.NewMetrics(), obs.NewTracer()
		primary.Boot.SetRecorder(obs.Combine(met, tracer))
	}
	start := time.Now()
	out, stats, err := (&cluster.Primary{Boot: primary.Boot}).Bootstrap(
		context.Background(), ct, nodes, nil, cluster.DefaultOptions())
	wall := time.Since(start)
	if tracePath != "" {
		primary.Boot.SetRecorder(nil)
	}
	if err != nil {
		return err
	}
	fmt.Printf("distributed bootstrap with one link cut mid-stream: %v\n%s",
		wall.Round(time.Millisecond), stats)
	if tracePath != "" {
		if err := writeTraceAndSnapshot(tracePath, tracer, met, wall); err != nil {
			return err
		}
	}

	for i := 0; i < out.Level(); i++ {
		for j, c := range out.C0.Limbs[i] {
			if c != reference.C0.Limbs[i][j] || out.C1.Limbs[i][j] != reference.C1.Limbs[i][j] {
				return fmt.Errorf("limb %d coeff %d differs from local bootstrap", i, j)
			}
		}
	}
	fmt.Printf("result bit-identical to local bootstrap; slot0 = %.3f (want 0.400)\n",
		real(primary.Decrypt(out)[0]))
	return nil
}
