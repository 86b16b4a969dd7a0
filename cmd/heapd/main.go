// Command heapd is the bootstrap-as-a-service daemon: it listens for tenant
// connections speaking the cluster's frame protocol, resolves each
// tenant's blind-rotate key from a concurrent-safe LRU registry (keys arrive
// over the resumable chunked key-stream upload), runs one batch at a time
// with its rotations fanned over every core (GOMAXPROCS), and coalesces the
// same-tenant jobs that queue behind a running batch into one key-major
// batch so one BRK pass through cache serves all of them.
//
//	heapd -addr 127.0.0.1:7901 -metrics 127.0.0.1:7902
//
// The daemon is key-cold by construction: it holds the public parameter set
// and the params-only lookup table, never any tenant secret. Tenants run
// Prepare/Finish locally and ship only the blind rotations (see
// internal/serve and DESIGN.md "Serving layer").
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"heap"
	"heap/internal/ckks"
	"heap/internal/core"
	"heap/internal/obs"
	"heap/internal/ring"
	"heap/internal/serve"
)

// daemonConfig is the parsed flag set — main fills it from the command
// line, tests fill it directly.
type daemonConfig struct {
	addr        string
	metricsAddr string // empty = metrics endpoint disabled
	scale       string
	rate        float64
	burst       float64
	queue       int
	maxKeyBytes int64
}

// daemon is a running heapd: listeners bound, serve loop live. Tests start
// one on ephemeral ports, drive it over real TCP, and Shutdown it; main
// starts one on the flag addresses and blocks in Wait.
type daemon struct {
	srv       *serve.Server
	ln        net.Listener
	metricsLn net.Listener
	httpSrv   *http.Server
	served    chan struct{}
}

// startDaemon builds the engine, binds both listeners, and launches the
// serve loops. On success the daemon is accepting connections; progress
// lines go to out.
func startDaemon(cfg daemonConfig, out io.Writer) (*daemon, error) {
	boot, err := buildBootstrapper(cfg.scale)
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(boot, serve.Config{
		MaxKeyBytes: cfg.maxKeyBytes,
		Admission:   serve.AdmissionConfig{QueueLimit: cfg.queue, RatePerSec: cfg.rate, Burst: cfg.burst},
	})
	d := &daemon{srv: srv, served: make(chan struct{})}

	d.ln, err = net.Listen("tcp", cfg.addr)
	if err != nil {
		return nil, err
	}
	if cfg.metricsAddr != "" {
		d.metricsLn, err = net.Listen("tcp", cfg.metricsAddr)
		if err != nil {
			_ = d.ln.Close()
			return nil, err
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.MetricsHandler())
		d.httpSrv = &http.Server{Handler: mux}
		go func() { _ = d.httpSrv.Serve(d.metricsLn) }()
		fmt.Fprintf(out, "heapd: metrics on http://%s/metrics\n", d.metricsLn.Addr())
	}

	fmt.Fprintf(out, "heapd: serving %s-scale bootstraps on %s (%d workers, %v)\n",
		cfg.scale, d.ln.Addr(), boot.Cfg.Workers, boot.KeyBytes())
	go func() {
		defer close(d.served)
		_ = d.srv.Serve(d.ln)
	}()
	return d, nil
}

// Addr returns the bound frame-protocol address (useful with ":0").
func (d *daemon) Addr() string { return d.ln.Addr().String() }

// MetricsAddr returns the bound metrics address ("" when disabled).
func (d *daemon) MetricsAddr() string {
	if d.metricsLn == nil {
		return ""
	}
	return d.metricsLn.Addr().String()
}

// Wait blocks until the serve loop exits (listener closed).
func (d *daemon) Wait() { <-d.served }

// Shutdown drains the daemon: stop accepting, wait for in-flight
// connections, release the executor, and stop the metrics endpoint.
// Idempotent enough for main's signal path and a test's defer to share.
func (d *daemon) Shutdown() {
	_ = d.ln.Close()
	<-d.served
	d.srv.Close()
	if d.httpSrv != nil {
		_ = d.httpSrv.Close()
	}
}

func main() {
	var cfg daemonConfig
	var maxKeyMB int64
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:7901", "frame-protocol listen address")
	flag.StringVar(&cfg.metricsAddr, "metrics", "", "HTTP listen address for the /metrics JSON snapshot (empty = disabled)")
	flag.StringVar(&cfg.scale, "scale", "test", "parameter scale: test (N=128, seconds) or paper (N=2^13, CPU heavy)")
	flag.Float64Var(&cfg.rate, "rate", 0, "per-tenant admission rate in jobs/sec (0 = unlimited)")
	flag.Float64Var(&cfg.burst, "burst", 0, "per-tenant admission burst (0 = max(1, rate))")
	flag.IntVar(&cfg.queue, "queue", 0, "server-wide queued-job cap, reject-on-full (0 = unbounded)")
	flag.Int64Var(&maxKeyMB, "maxkeymb", 0, "registry key budget in MiB, LRU-evicted (0 = unbounded)")
	flag.Parse()
	cfg.maxKeyBytes = maxKeyMB << 20
	obs.SetISA(ring.SIMDLevel())

	d, err := startDaemon(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("heapd: draining")
		_ = d.ln.Close()
	}()
	d.Wait()
	d.Shutdown()
	fmt.Println("heapd: stopped")
}

// buildBootstrapper constructs the server-side engine: full parameter set,
// params-only LUT and scratch pools, and a batch width of every core. It is
// ColdStart, so it holds no key at all and draws no secret: tenant
// blind-rotate keys live in the registry, and Prepare and Finish run on the
// tenant.
func buildBootstrapper(scale string) (*core.Bootstrapper, error) {
	var cfg heap.ContextConfig
	switch scale {
	case "test":
		cfg = heap.TestContextConfig()
	case "paper":
		cfg = heap.PaperContextConfig()
	default:
		return nil, fmt.Errorf("heapd: unknown -scale %q (test|paper)", scale)
	}
	cfg.Bootstrap.ColdStart = true
	cfg.Bootstrap.Workers = runtime.GOMAXPROCS(0)
	q := ring.GenerateNTTPrimes(cfg.LimbBits, cfg.LogN, cfg.Limbs)
	p := ring.GenerateNTTPrimesUp(cfg.LimbBits+1, cfg.LogN, cfg.PLimbs)
	params, err := ckks.NewParameters(cfg.LogN, q, p, ring.DefaultSigma, cfg.Dnum,
		float64(uint64(1)<<cfg.LogScale), cfg.Slots)
	if err != nil {
		return nil, err
	}
	return core.NewBootstrapper(params, nil, nil, cfg.Bootstrap)
}
