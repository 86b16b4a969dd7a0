package core

import (
	"math/cmplx"
	"sync"
	"testing"

	"heap/internal/ckks"
	"heap/internal/ring"
	"heap/internal/rlwe"
)

// testSetup builds a small scheme-switching context: N=2^8, three 30-bit
// limbs (q0, one application limb, the auxiliary p), Δ=2^28.
func testSetup(t *testing.T, workers int) (*ckks.Parameters, *ckks.Client, *ckks.Evaluator, *Bootstrapper) {
	t.Helper()
	return testSetupAt(t, 8, workers)
}

// testSetupAt is testSetup at ring degree 2^logN.
func testSetupAt(t *testing.T, logN, workers int) (*ckks.Parameters, *ckks.Client, *ckks.Evaluator, *Bootstrapper) {
	t.Helper()
	q := ring.GenerateNTTPrimes(30, logN, 3)
	p := ring.GenerateNTTPrimesUp(31, logN, 2)
	params := ckks.MustParameters(logN, q, p, ring.DefaultSigma, 2, float64(uint64(1)<<28), 1<<(logN-1))

	kg := rlwe.NewKeyGenerator(params.Parameters, 50)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	cl := ckks.NewClient(params, sk, 51)

	cfg := DefaultConfig()
	cfg.NT = 24
	cfg.Workers = workers
	bt, err := NewBootstrapper(params, kg, sk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	keys := ckks.GenEvaluationKeySet(params, kg, sk, nil, false)
	ev := ckks.NewEvaluator(params, keys, nil)
	return params, cl, ev, bt
}

func testVector(n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(0.6*float64(i%9)/9-0.3, 0.5*float64(i%11)/11-0.25)
	}
	return v
}

func worstErr(got, want []complex128) float64 {
	w := 0.0
	for i := range want {
		if e := cmplx.Abs(got[i] - want[i]); e > w {
			w = e
		}
	}
	return w
}

func TestSchemeSwitchBootstrap(t *testing.T) {
	params, cl, _, bt := testSetup(t, 4)
	v := testVector(params.Slots)
	ct := cl.EncryptAtLevel(v, 1) // exhausted ciphertext
	out := bt.Bootstrap(ct)

	if out.Level() != bt.AppMaxLevel() {
		t.Fatalf("bootstrap output level %d want %d", out.Level(), bt.AppMaxLevel())
	}
	got := cl.Decrypt(out)
	err := worstErr(got, v)
	bound := bt.ExpectedSlotErrorBound()
	t.Logf("scheme-switching bootstrap max error: %g (analytic bound %g)", err, bound)
	if err > bound {
		t.Errorf("bootstrap error %g exceeds the analytic bound %g", err, bound)
	}
}

// TestSchemeSwitchBootstrapExact runs the NT=0 configuration: no
// dimension-reducing key switch, so the wrap-around values are recovered
// exactly and the only residual error is blind-rotate/packing noise.
func TestSchemeSwitchBootstrapExact(t *testing.T) {
	if testing.Short() {
		t.Skip("exact mode blind-rotates over all N secret coefficients")
	}
	logN := 7
	q := ring.GenerateNTTPrimes(30, logN, 3)
	p := ring.GenerateNTTPrimesUp(31, logN, 2)
	params := ckks.MustParameters(logN, q, p, ring.DefaultSigma, 2, float64(uint64(1)<<28), 1<<(logN-1))
	kg := rlwe.NewKeyGenerator(params.Parameters, 50)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	cl := ckks.NewClient(params, sk, 51)

	cfg := DefaultConfig()
	cfg.NT = 0
	cfg.Workers = 2
	bt, err := NewBootstrapper(params, kg, sk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := testVector(params.Slots)
	ct := cl.EncryptAtLevel(v, 1)
	out := bt.Bootstrap(ct)
	got := cl.Decrypt(out)
	e := worstErr(got, v)
	t.Logf("exact-mode bootstrap max error: %g", e)
	if e > 1e-2 {
		t.Errorf("exact-mode bootstrap error %g exceeds tolerance", e)
	}
}

func TestBootstrapThenMultiply(t *testing.T) {
	params, cl, ev, bt := testSetup(t, 4)
	v := testVector(params.Slots)
	ct := cl.EncryptAtLevel(v, 1)
	out := bt.Bootstrap(ct)

	// The refreshed ciphertext must support a real multiplication: the
	// whole point of regaining levels.
	sq := ev.MulRelinRescale(out, out)
	got := cl.Decrypt(sq)
	want := make([]complex128, params.Slots)
	for i := range want {
		want[i] = v[i] * v[i]
	}
	// Squaring roughly doubles the relative bootstrap error.
	if err, bound := worstErr(got, want), 2.5*bt.ExpectedSlotErrorBound(); err > bound {
		t.Errorf("post-bootstrap square error %g exceeds %g", err, bound)
	}
}

// TestRepeatedBootstrapCycle runs two full compute→exhaust→bootstrap cycles
// in exact mode (NT=0): at the miniature test parameters the n_t-mode
// rounding error is too large relative to a post-multiplication scale, a
// regime the analytic bound predicts (see DESIGN.md); the paper-scale
// parameter set has 2N·Δ/q0 = 2^13 of head-room instead of 2^7.
func TestRepeatedBootstrapCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	logN := 7
	q := ring.GenerateNTTPrimes(30, logN, 3)
	p := ring.GenerateNTTPrimesUp(31, logN, 2)
	params := ckks.MustParameters(logN, q, p, ring.DefaultSigma, 2, float64(uint64(1)<<28), 1<<(logN-1))
	kg := rlwe.NewKeyGenerator(params.Parameters, 50)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	cl := ckks.NewClient(params, sk, 51)
	cfg := DefaultConfig()
	cfg.NT = 0
	cfg.Workers = 2
	bt, err := NewBootstrapper(params, kg, sk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	keys := ckks.GenEvaluationKeySet(params, kg, sk, nil, false)
	ev := ckks.NewEvaluator(params, keys, nil)

	v := make([]complex128, params.Slots)
	for i := range v {
		v[i] = complex(0.5, 0)
	}
	ct := cl.EncryptAtLevel(v, bt.AppMaxLevel())
	want := complex(0.5, 0)
	for cycle := 0; cycle < 2; cycle++ {
		for ct.Level() > 1 {
			ct = ev.MulRelinRescale(ct, ct)
			want *= want
		}
		ct = bt.Bootstrap(ct)
	}
	got := cl.Decrypt(ct)
	for i := range got {
		if e := cmplx.Abs(got[i] - want); e > 1e-2 {
			t.Fatalf("slot %d after two cycles: %v want %v", i, got[i], want)
		}
	}
}

func TestWorkerCountsAgree(t *testing.T) {
	params, cl, _, bt1 := testSetup(t, 1)
	_, _, _, bt4 := testSetup(t, 4)
	v := testVector(params.Slots)
	ct := cl.EncryptAtLevel(v, 1)
	out1 := bt1.Bootstrap(ct.CopyNew())
	out4 := bt4.Bootstrap(ct.CopyNew())
	// A second bootstrap draws its accumulators from the ones the first
	// handed back, still holding the first's merge-tree leftovers.
	again := bt1.Bootstrap(ct.CopyNew())
	// Same keys (same seeds) and a deterministic pipeline: neither the
	// worker count nor recycled accumulators may change the result at all.
	for i := range out1.C0.Limbs {
		for j := range out1.C0.Limbs[i] {
			if out1.C0.Limbs[i][j] != out4.C0.Limbs[i][j] || out1.C1.Limbs[i][j] != out4.C1.Limbs[i][j] {
				t.Fatalf("worker count changed the ciphertext at limb %d coeff %d", i, j)
			}
			if out1.C0.Limbs[i][j] != again.C0.Limbs[i][j] || out1.C1.Limbs[i][j] != again.C1.Limbs[i][j] {
				t.Fatalf("recycled accumulators changed the ciphertext at limb %d coeff %d", i, j)
			}
		}
	}
}

func TestModSwitchExactIdentity(t *testing.T) {
	params, _, _, bt := testSetup(t, 1)
	q0 := params.Q[0]
	n := params.N()
	twoN := uint64(2 * n)
	c0 := make([]uint64, n)
	c1 := make([]uint64, n)
	s := ring.NewSampler(60)
	for i := range c0 {
		c0[i] = s.UniformMod(q0)
		c1[i] = s.UniformMod(q0)
	}
	ms := bt.modSwitchExact(c0, c1)
	for i := range c0 {
		// 2N·x = q0·alpha + r exactly, alpha within [0,2N), r centered.
		y := int64(twoN * c0[i])
		if ms.rC0[i] <= -int64(q0)/2-1 || ms.rC0[i] > int64(q0)/2 {
			t.Fatalf("r not centered: %d", ms.rC0[i])
		}
		// Recover alpha before the mod-2N reduction.
		alpha := (y - ms.rC0[i]) / int64(q0)
		if uint64(alpha)%twoN != ms.alphaC0[i] {
			t.Fatalf("coeff %d: identity broken", i)
		}
		_ = c1
	}
}

func TestKeyMaterialReport(t *testing.T) {
	r := PaperKeyMaterialReport()
	// Paper: ~3.52 MB per brk key, ~1.76 GB total, ~18× traffic reduction.
	if mb := float64(r.BRKKeyBytes) / (1 << 20); mb < 3.3 || mb > 3.8 {
		t.Errorf("brk key size %.2f MB, paper says ~3.52 MB", mb)
	}
	if gb := float64(r.BRKTotalBytes) / (1 << 30); gb < 1.6 || gb > 1.9 {
		t.Errorf("brk total %.2f GB, paper says ~1.76 GB", gb)
	}
	if mb := float64(r.ConvKeyBytes) / (1 << 20); mb < 110 || mb > 140 {
		t.Errorf("conventional key %.1f MB, paper says ~126 MB", mb)
	}
	if ratio := r.KeyTrafficRatio(); ratio < 15 || ratio > 21 {
		t.Errorf("key traffic ratio %.1f×, paper says ~18×", ratio)
	}
	if r.String() == "" {
		t.Error("empty report")
	}
}

func TestConfigValidation(t *testing.T) {
	logN := 6
	q := ring.GenerateNTTPrimes(30, logN, 2)
	p := ring.GenerateNTTPrimesUp(31, logN, 2)
	params := ckks.MustParameters(logN, q, p, ring.DefaultSigma, 2, float64(uint64(1)<<28), 1<<(logN-1))
	kg := rlwe.NewKeyGenerator(params.Parameters, 61)
	sk := kg.GenSecretKey(rlwe.SecretTernary)

	bad := DefaultConfig()
	bad.NT = params.N() // too large: breaks the wrap-around bound
	if _, err := NewBootstrapper(params, kg, sk, bad); err == nil {
		t.Error("expected error for NT ≥ N/2")
	}
	bad = DefaultConfig()
	bad.Workers = 0
	if _, err := NewBootstrapper(params, kg, sk, bad); err == nil {
		t.Error("expected error for zero workers")
	}
}

// TestModSwitchOverflowRejected: modSwitchExact computes 2N·(x mod q0)
// through int64 and silently corrupts every coefficient when 2N·q0 ≥ 2^63.
// Such parameter sets must be rejected at construction, not at bootstrap.
func TestModSwitchOverflowRejected(t *testing.T) {
	logN := 8 // 2N = 2^9, so any q0 ≥ 2^54 overflows 2N·q0 past 2^63
	q := ring.GenerateNTTPrimes(56, logN, 2)
	p := ring.GenerateNTTPrimesUp(57, logN, 2)
	params := ckks.MustParameters(logN, q, p, ring.DefaultSigma, 2, float64(uint64(1)<<40), 1<<(logN-1))
	kg := rlwe.NewKeyGenerator(params.Parameters, 62)
	sk := kg.GenSecretKey(rlwe.SecretTernary)

	cfg := DefaultConfig()
	cfg.NT = 24
	if _, err := NewBootstrapper(params, kg, sk, cfg); err == nil {
		t.Fatal("expected error for 2N·q0 ≥ 2^63, got nil")
	}
}

// TestCompleteMissingConcurrentSharedKeySwitcher runs the blind-rotation
// fan-out with Workers > 1 against one shared KeySwitcher — end to end
// through Finish — twice concurrently. Under -race this exercises the
// per-worker scratch arenas and the permCache lock; the results must also
// stay deterministic and identical across the concurrent runs.
func TestCompleteMissingConcurrentSharedKeySwitcher(t *testing.T) {
	params, cl, _, bt := testSetup(t, 8)
	v := testVector(params.Slots)
	ct := cl.EncryptAtLevel(v, 1)
	prep := bt.PrepareSparse(ct, 16)

	outs := make([]*rlwe.Ciphertext, 2)
	var wg sync.WaitGroup
	for k := range outs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			accs := make([]*rlwe.Ciphertext, len(prep.LWEs))
			bt.CompleteMissing(prep, accs)
			out, err := bt.Finish(prep, accs)
			if err != nil {
				t.Error(err)
				return
			}
			outs[k] = out
		}(k)
	}
	wg.Wait()

	for i := range outs[0].C0.Limbs {
		for j := range outs[0].C0.Limbs[i] {
			if outs[0].C0.Limbs[i][j] != outs[1].C0.Limbs[i][j] ||
				outs[0].C1.Limbs[i][j] != outs[1].C1.Limbs[i][j] {
				t.Fatalf("concurrent bootstraps diverged at limb %d coeff %d", i, j)
			}
		}
	}
}

// TestSparseBootstrap exercises the §V n_br knob: a sparsely packed
// ciphertext (slots = N/8) bootstraps with only 2·slots blind rotations,
// and the repacking trace cleans the junk the modulus raise leaves at
// non-subring coefficients.
func TestSparseBootstrap(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	logN := 8
	slots := 1 << (logN - 3) // sparse: N/8 slots
	q := ring.GenerateNTTPrimes(30, logN, 3)
	p := ring.GenerateNTTPrimesUp(31, logN, 2)
	params := ckks.MustParameters(logN, q, p, ring.DefaultSigma, 2, float64(uint64(1)<<28), slots)
	kg := rlwe.NewKeyGenerator(params.Parameters, 50)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	cl := ckks.NewClient(params, sk, 51)
	cfg := DefaultConfig()
	cfg.NT = 0
	cfg.Workers = 2
	bt, err := NewBootstrapper(params, kg, sk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := testVector(slots)
	ct := cl.EncryptAtLevel(v, 1)
	out := bt.BootstrapSparse(ct, 2*slots)
	got := cl.Decrypt(out)
	e := worstErr(got, v)
	t.Logf("sparse (n_br=%d of N=%d) bootstrap max error: %g", 2*slots, params.N(), e)
	if e > 1e-2 {
		t.Errorf("sparse bootstrap error %g exceeds tolerance", e)
	}
}
