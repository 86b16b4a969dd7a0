package cluster

import (
	"math/cmplx"
	"runtime"
	"sync"
	"testing"
	"time"

	"heap/internal/ckks"
	"heap/internal/core"
	"heap/internal/ring"
	"heap/internal/rlwe"
)

// The fixtures of this package's tests and, through export_test.go, of the
// external package cluster_test, whose tests need a serving node: a node is
// an internal/serve Server, and serve imports this package.

// buildNode constructs one node's full context at ring degree 2^logN from
// the shared seed — offline key generation, as the paper prescribes.
func buildNode(t *testing.T, logN int) (*ckks.Parameters, *ckks.Client, *core.Bootstrapper) {
	t.Helper()
	q := ring.GenerateNTTPrimes(30, logN, 3)
	p := ring.GenerateNTTPrimesUp(31, logN, 2)
	params := ckks.MustParameters(logN, q, p, ring.DefaultSigma, 2, float64(uint64(1)<<28), 1<<(logN-1))
	kg := rlwe.NewKeyGenerator(params.Parameters, 90)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	cl := ckks.NewClient(params, sk, 91)
	cfg := core.DefaultConfig()
	cfg.NT = 0
	cfg.Workers = 1
	bt, err := core.NewBootstrapper(params, kg, sk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return params, cl, bt
}

// The chaos tests all run against one shared miniature node (N=64): every
// node in a real deployment generates identical key material offline from
// the shared seed, so a single bootstrapper can play primary and every
// secondary (BlindRotateOne is concurrency-safe), and bit-exactness against
// the local reference bootstrap stays meaningful.
var fx struct {
	once   sync.Once
	params *ckks.Parameters
	cl     *ckks.Client
	bt     *core.Bootstrapper
	ct     *rlwe.Ciphertext // level-1 input
	want   []complex128     // plaintext
	local  *rlwe.Ciphertext // reference: purely local bootstrap
}

func fixture(t *testing.T) {
	t.Helper()
	fx.once.Do(func() {
		logN := 6
		q := ring.GenerateNTTPrimes(30, logN, 3)
		p := ring.GenerateNTTPrimesUp(31, logN, 2)
		params := ckks.MustParameters(logN, q, p, ring.DefaultSigma, 2, float64(uint64(1)<<28), 1<<(logN-1))
		kg := rlwe.NewKeyGenerator(params.Parameters, 90)
		sk := kg.GenSecretKey(rlwe.SecretTernary)
		cl := ckks.NewClient(params, sk, 91)
		cfg := core.DefaultConfig()
		cfg.NT = 0
		cfg.Workers = 2
		bt, err := core.NewBootstrapper(params, kg, sk, cfg)
		if err != nil {
			panic(err)
		}
		v := make([]complex128, params.Slots)
		for i := range v {
			v[i] = complex(0.35*float64(i%5)/5, -0.2*float64(i%3)/3)
		}
		ct := cl.EncryptAtLevel(v, 1)
		fx.params, fx.cl, fx.bt = params, cl, bt
		fx.ct, fx.want = ct, v
		fx.local = bt.Bootstrap(ct.CopyNew())
	})
}

// assertBitExact checks the distributed result against the local reference
// bit for bit and confirms it still decrypts to the plaintext.
func assertBitExact(t *testing.T, out *rlwe.Ciphertext) {
	t.Helper()
	for i := range fx.local.C0.Limbs {
		for j := range fx.local.C0.Limbs[i] {
			if fx.local.C0.Limbs[i][j] != out.C0.Limbs[i][j] || fx.local.C1.Limbs[i][j] != out.C1.Limbs[i][j] {
				t.Fatalf("result differs from local bootstrap at limb %d coeff %d", i, j)
			}
		}
	}
	got := fx.cl.Decrypt(out)
	for i := range fx.want {
		if e := cmplx.Abs(got[i] - fx.want[i]); e > 1e-2 {
			t.Fatalf("slot %d: got %v want %v", i, got[i], fx.want[i])
		}
	}
}

func testOptions() Options {
	o := DefaultOptions()
	// Generous: the deadline covers a full batch round-trip including the
	// secondary's compute, which is slow under -race. Only the dedicated
	// timeout test tightens it.
	o.BatchTimeout = 2 * time.Minute
	return o
}

// assertNoGoroutineLeak polls (GC between samples, to let conn finalizers
// and timer goroutines retire) until the goroutine count is back to the
// baseline, failing with a full stack dump if it never gets there.
func assertNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// fixtureNode builds a bootstrapper from the same seeds and parameters as the
// shared fixture — so under the same RLWE secret fx.ct is encrypted under —
// at LWE dimension nt (0: exact mode). With cold set it is built from the
// parameters alone, holds no key, and must receive the (public) blind-rotate
// key over the cluster's streaming channel. The params digest still matches —
// cold is a key state, not a parameter set.
func fixtureNode(t *testing.T, nt int, cold bool) *core.Bootstrapper {
	t.Helper()
	fixture(t)
	var (
		kg *rlwe.KeyGenerator
		sk *rlwe.SecretKey
	)
	if !cold {
		kg = rlwe.NewKeyGenerator(fx.params.Parameters, 90)
		sk = kg.GenSecretKey(rlwe.SecretTernary)
	}
	cfg := core.DefaultConfig()
	cfg.NT = nt
	cfg.Workers = 1
	cfg.ColdStart = cold
	bt, err := core.NewBootstrapper(fx.params, kg, sk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return bt
}
