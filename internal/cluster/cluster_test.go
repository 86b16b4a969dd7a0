package cluster_test

import (
	"context"
	"math/cmplx"
	"net"
	"testing"

	. "heap/internal/cluster"
)

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
	node1 := newNode(t, btSec1)
	node2 := newNode(t, btSec2)
	go func() { done <- node1.ServeConn(c1s) }()
	go func() { done <- node2.ServeConn(c2s) }()

	primary := &Primary{Boot: btPrimary}
	nodes := []*Node{{Conn: c1p}, {Conn: c2p}}
	out, stats, err := primary.Bootstrap(context.Background(), ct.CopyNew(), nodes, DefaultOptions())
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
