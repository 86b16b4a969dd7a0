package cluster

import (
	"context"
	"math/cmplx"
	"net"
	"testing"

	"heap/internal/ckks"
	"heap/internal/core"
	"heap/internal/ring"
	"heap/internal/rlwe"
)

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

// TestDistributedBootstrap runs a primary plus two secondaries over
// net.Pipe connections — the full Figure 4 flow with real byte streams —
// and checks the result against the single-node bootstrap bit for bit.
func TestDistributedBootstrap(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed bootstrap is slow")
	}
	params, cl, btPrimary := buildNode(t, 6)
	_, _, btSec1 := buildNode(t, 6)
	_, _, btSec2 := buildNode(t, 6)

	v := make([]complex128, params.Slots)
	for i := range v {
		v[i] = complex(0.35*float64(i%5)/5, -0.2*float64(i%3)/3)
	}
	ct := cl.EncryptAtLevel(v, 1)

	// Reference: purely local bootstrap.
	local := btPrimary.Bootstrap(ct.CopyNew())

	// Distributed: two secondaries over in-process duplex pipes.
	c1p, c1s := net.Pipe()
	c2p, c2s := net.Pipe()
	done := make(chan error, 2)
	go func() { done <- (&Secondary{Boot: btSec1}).Serve(c1s) }()
	go func() { done <- (&Secondary{Boot: btSec2}).Serve(c2s) }()

	primary := &Primary{Boot: btPrimary}
	nodes := []*Node{{Conn: c1p}, {Conn: c2p}}
	out, stats, err := primary.Bootstrap(context.Background(), ct.CopyNew(), nodes, nil, DefaultOptions())
	if err == nil {
		err = stats.NodeErrors()
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := Shutdown(c1p); err != nil {
		t.Fatal(err)
	}
	if err := Shutdown(c2p); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("secondary error: %v", err)
		}
	}

	// Bit-identical to the local result (same keys, deterministic pipeline).
	for i := range local.C0.Limbs {
		for j := range local.C0.Limbs[i] {
			if local.C0.Limbs[i][j] != out.C0.Limbs[i][j] || local.C1.Limbs[i][j] != out.C1.Limbs[i][j] {
				t.Fatalf("distributed result differs at limb %d coeff %d", i, j)
			}
		}
	}

	// And of course it decrypts.
	got := cl.Decrypt(out)
	for i := range v {
		if e := cmplx.Abs(got[i] - v[i]); e > 1e-2 {
			t.Fatalf("slot %d: %v want %v", i, got[i], v[i])
		}
	}
}
