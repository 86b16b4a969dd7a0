// Multi-node parallel bootstrapping walk-through (§V, Figure 4).
//
// Functionally, the worker pool of the scheme-switching bootstrapper plays
// the role of the eight FPGAs: the blind rotations of distinct LWE
// ciphertexts have no data dependencies, so they fan out across compute
// nodes and stream back to the primary for repacking. This example runs the
// same bootstrap with 1, 2, 4 and 8 workers (identical results, by
// determinism), prints the observability snapshot of a fault-injected
// cluster run, and prints the hardware model's timeline for the real
// eight-FPGA system.
package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"time"

	"heap"
	"heap/internal/cluster"
	"heap/internal/hwsim"
	"heap/internal/obs"
	"heap/internal/rlwe"
	"heap/internal/serve"
)

func main() {
	if err := run(heap.TestContextConfig(), []int{1, 2, 4, 8}); err != nil {
		panic(err)
	}
}

// run executes the walk-through at the given parameter scale and worker
// sweep; the smoke test drives it with a reduced ring and a short sweep.
func run(cfg heap.ContextConfig, workerCounts []int) error {
	for _, workers := range workerCounts {
		c := cfg
		c.Bootstrap.Workers = workers
		ctx, err := heap.NewContext(c)
		if err != nil {
			return err
		}
		v := make([]complex128, ctx.Params.Slots)
		for i := range v {
			v[i] = complex(0.4, 0)
		}
		ct := ctx.Client.EncryptAtLevel(v, 1) // exhausted ciphertext
		start := time.Now()
		out := ctx.Boot.Bootstrap(ct)
		fmt.Printf("workers=%d: bootstrap in %8v, output level %d, slot0 = %.3f\n",
			workers, time.Since(start).Round(time.Millisecond), out.Level(),
			real(ctx.Decrypt(out)[0]))
	}

	// The same fan-out over real byte streams: a primary and two secondary
	// nodes exchanging serialized ciphertexts (internal/cluster, Figure 4).
	primary, err := heap.NewContext(cfg)
	if err != nil {
		return err
	}
	// A secondary fans each batch over its bootstrapper's Workers, which a
	// serving node sets to its cores, as heapd does.
	secCfg := cfg
	secCfg.Bootstrap.Workers = runtime.GOMAXPROCS(0)
	sec1, err := heap.NewContext(secCfg)
	if err != nil {
		return err
	}
	sec2, err := heap.NewContext(secCfg)
	if err != nil {
		return err
	}
	node1 := serve.NewServer(sec1.Boot, serve.Config{})
	node2 := serve.NewServer(sec2.Boot, serve.Config{})
	defer node1.Close()
	defer node2.Close()
	// The primary dials each secondary, as the primary of the paper's system
	// drives its fixed set of FPGAs.
	dial := func(node *serve.Server) cluster.Conn {
		local, remote := net.Pipe()
		go func() { _ = node.ServeConn(remote) }()
		return local
	}
	v2 := make([]complex128, primary.Params.Slots)
	for i := range v2 {
		v2[i] = complex(0.4, 0)
	}
	ct2 := primary.Client.EncryptAtLevel(v2, 1)
	// Blind rotation is deterministic and node-placement-independent, so
	// every distributed run must equal the local bootstrap bit for bit.
	reference := primary.Boot.Bootstrap(ct2)
	bitIdentical := func(out *rlwe.Ciphertext) error {
		b := primary.Params.QBasis.AtLevel(reference.Level())
		if !b.Equal(reference.C0, out.C0) || !b.Equal(reference.C1, out.C1) {
			return fmt.Errorf("distributed result differs from the local bootstrap")
		}
		return nil
	}
	start := time.Now()
	pr := &cluster.Primary{Boot: primary.Boot}
	nodes := []*cluster.Node{{Conn: dial(node1), Name: "fpga-1"}, {Conn: dial(node2), Name: "fpga-2"}}
	out2, stats, err := pr.Bootstrap(context.Background(), ct2, nodes, cluster.DefaultOptions())
	if err == nil {
		err = stats.NodeErrors()
	}
	if err == nil {
		err = bitIdentical(out2)
	}
	if err != nil {
		return err
	}
	for _, n := range nodes {
		_ = cluster.Shutdown(n.Conn)
	}
	fmt.Printf("\ndistributed (1 primary + 2 secondaries over byte streams): %v, slot0 = %.3f, bit-identical to local\n",
		time.Since(start).Round(time.Millisecond), real(primary.Decrypt(out2)[0]))

	// Fault tolerance: the same bootstrap with one secondary's link cut
	// mid-stream (FaultConn injects a deterministic mid-stream disconnect).
	// The primary detects the partial accumulator stream via the framed,
	// CRC-checked wire protocol, reassigns the dead node's unfinished LWE
	// indices to the healthy secondary and its own local compute, and the
	// result is still bit-identical to the local bootstrap. The observability
	// layer watches this run: the pipeline stages account the wall time, the
	// shard lanes show where the rotations and network waits went (the
	// software rendering of the paper's Fig. 4 schedule).
	healthy := dial(node2)
	nodes = []*cluster.Node{
		{Conn: cluster.NewFaultConn(dial(node1), cluster.FaultPlan{Seed: 1, CutReadAfter: 8 << 10}), Name: "flaky-fpga"},
		{Conn: healthy, Name: "healthy-fpga"},
	}
	met := obs.NewMetrics()
	primary.Boot.SetRecorder(met)
	start = time.Now()
	out3, stats, err := pr.Bootstrap(context.Background(), ct2, nodes, cluster.DefaultOptions())
	primary.Boot.SetRecorder(nil)
	if err == nil {
		err = bitIdentical(out3)
	}
	if err != nil {
		return err
	}
	_ = cluster.Shutdown(healthy)
	fmt.Printf("\nchaos run (one link cut mid-stream): %v, slot0 = %.3f, bit-identical to local\n%s",
		time.Since(start).Round(time.Millisecond), real(primary.Decrypt(out3)[0]), stats)
	fmt.Printf("\nobservability snapshot of the chaos run (expvar-style):\n%s", met.JSON())
	fmt.Printf("pipeline stages account for %.1f ms of wall time\n", met.PipelineTotalMs())

	fmt.Println("\nHardware model (Alveo U280 nodes, 100G CMAC, fully packed n=4096):")
	fmt.Printf("%6s %12s %12s %12s %14s\n", "FPGAs", "step3 (ms)", "comm (ms)", "total (ms)", "vs 1 FPGA")
	base := hwsim.NewSystem(hwsim.AlveoU280(), hwsim.PaperParams(), 1).Bootstrap(1 << 12).TotalMs
	for _, n := range []int{1, 2, 4, 8} {
		s := hwsim.NewSystem(hwsim.AlveoU280(), hwsim.PaperParams(), n)
		b := s.Bootstrap(1 << 12)
		fmt.Printf("%6d %12.4f %12.4f %12.4f %13.2f×\n", n, b.Step3Ms, b.CommMs, b.TotalMs, base/b.TotalMs)
	}
	fmt.Println("\nFAB's serial CKKS bootstrap gains only ~20% from 8 FPGAs (§I);")
	fmt.Println("the scheme-switched BlindRotate fan-out above scales near-linearly until the CMAC link binds.")
	return nil
}
