// Command heapbench regenerates the paper's evaluation tables (II–VIII)
// from the calibrated hardware model, the workload schedules, and the
// published baseline numbers:
//
//	heapbench            # print every table
//	heapbench -table 5   # print one table
//	heapbench -keys      # §III-C key-traffic accounting
//	heapbench -sweep     # FPGA-count scaling sweep for the bootstrap
//	heapbench -cluster   # fault-tolerant distributed bootstrap demo
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
	"heap/internal/serve"
)

func main() {
	table := flag.Int("table", 0, "print a single table (2-8)")
	keys := flag.Bool("keys", false, "print the §III-C key-material report")
	area := flag.Bool("area", false, "print the §VI-B area/power comparison")
	sweep := flag.Bool("sweep", false, "sweep bootstrap latency over FPGA counts")
	chaos := flag.Bool("cluster", false, "run an in-process distributed bootstrap with fault injection")
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

// runCluster runs the parallelized bootstrap (§V) across three in-process
// nodes connected by byte pipes, with one link deliberately cut mid-stream
// to exercise the reassignment path and the other node key-cold, so the
// primary streams it the blind-rotate key before its first batch, and checks
// the result against a purely local bootstrap of the same ciphertext (they
// must be bit-identical, since blind rotations are deterministic and
// node-placement-independent).
// With a non-empty tracePath the distributed run is recorded by the
// observability layer: one timeline lane per node and local worker.
func runCluster(tracePath string) error {
	primary, err := heap.NewContext(heap.TestContextConfig())
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

	// A secondary fans each batch over its bootstrapper's Workers, which a
	// serving node sets to its cores, as heapd does.
	// Node 1 is key-cold, as a stock heapd is.
	nodes := make([]*cluster.Node, 2)
	servers := make([]*serve.Server, 2)
	for i := range nodes {
		secCfg := heap.TestContextConfig()
		secCfg.Bootstrap.Workers = runtime.GOMAXPROCS(0)
		secCfg.Bootstrap.ColdStart = i == 1
		sec, err := heap.NewContext(secCfg)
		if err != nil {
			return err
		}
		servers[i] = serve.NewServer(sec.Boot, serve.Config{})
		defer servers[i].Close()
		local, remote := net.Pipe()
		go func() { _ = servers[i].ServeConn(remote) }()
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
		context.Background(), ct, nodes, cluster.DefaultOptions())
	wall := time.Since(start)
	if tracePath != "" {
		primary.Boot.SetRecorder(nil)
	}
	if err != nil {
		return err
	}
	keyMet := servers[1].Metrics()
	fmt.Printf("distributed bootstrap with one link cut mid-stream: %v\n%s"+
		"key-cold fpga-1 was streamed the key: %d chunks, %d bytes\n",
		wall.Round(time.Millisecond), stats,
		keyMet.Counter(obs.CounterKeyChunks), keyMet.Counter(obs.CounterKeyChunkBytes))
	if tracePath != "" {
		if err := writeTraceAndSnapshot(tracePath, tracer, met, wall); err != nil {
			return err
		}
	}

	b := primary.Params.QBasis.AtLevel(reference.Level())
	if !b.Equal(reference.C0, out.C0) || !b.Equal(reference.C1, out.C1) {
		return fmt.Errorf("distributed result differs from the local bootstrap")
	}
	fmt.Printf("result bit-identical to local bootstrap; slot0 = %.3f (want 0.400)\n",
		real(primary.Decrypt(out)[0]))
	return nil
}
