package main

import (
	"time"

	"heap"
	"heap/internal/ring"
	"heap/internal/rlwe"
	"heap/internal/rns"
)

// How often each kernel is timed; the figure reported is the median call.
// Single-limb kernels take about 0.1 ms, whole-basis conversions about 1 ms
// and key switches about 10 ms, so the counts shrink as the calls grow and
// the whole pass stays near five seconds.
const (
	ringCalls = 300
	rnsCalls  = 100
	rlweCalls = 50
)

// medianUs times calls of f one by one on the calling goroutine and returns
// the median in microseconds.
func medianUs(calls int, f func()) float64 {
	f() // fills caches and lazily sized scratch
	d := make([]float64, calls)
	for i := range d {
		t0 := time.Now()
		f()
		d[i] = float64(time.Since(t0)) / 1e3
	}
	return median(d)
}

// kernelPass times the public kernels of ring, rns, rlwe and tfhe single
// threaded at the paper ring (N = 2^13, Q7+P4, dnum 2): the bottom rows of
// the ledger, the same on every workload so that any traced run can relate
// its counts to them. seed draws the operands; kernel time does not depend
// on them.
func kernelPass(m map[string]float64, seed int64) error {
	cfg := heap.PaperContextConfig()
	q := ring.GenerateNTTPrimes(cfg.LimbBits, cfg.LogN, cfg.Limbs)
	p := ring.GenerateNTTPrimesUp(cfg.LimbBits+1, cfg.LogN, cfg.PLimbs)
	params, err := rlwe.NewParameters(cfg.LogN, q, p, ring.DefaultSigma, cfg.Dnum)
	if err != nil {
		return err
	}
	s := ring.NewSampler(uint64(seed))
	uniform := func(b *rns.Basis) rns.Poly {
		out := b.NewPoly()
		for i, r := range b.Rings {
			s.UniformPoly(r, out.Limbs[i])
		}
		return out
	}

	// ring: one limb of the first Q prime.
	r0 := params.QBasis.Rings[0]
	a, b, acc := r0.NewPoly(), r0.NewPoly(), r0.NewPoly()
	s.UniformPoly(r0, a)
	s.UniformPoly(r0, b)
	m["ring.ntt_us"] = medianUs(ringCalls, func() { r0.NTT(a) })
	m["ring.intt_us"] = medianUs(ringCalls, func() { r0.INTT(a) })
	m["ring.mac_us"] = medianUs(ringCalls, func() { r0.MulCoeffsAndAdd(a, b, acc) })
	m["ring.monomial_us"] = medianUs(ringCalls, func() { r0.MulByMonomialInto(a, 5, acc) })
	perm := r0.AutomorphismNTTIndex(r0.GaloisElementForRotation(1))
	m["ring.automorphism_us"] = medianUs(ringCalls, func() { r0.AutomorphismNTT(a, perm, acc) })

	// rns: the digit raise of one gadget digit, the two ModDown forms, rescale.
	alpha := params.Alpha()
	digit := &rns.Basis{Rings: params.QBasis.Rings[:alpha], LogN: params.LogN, N: params.N()}
	ext := rns.NewExtender(digit, params.QPBasis)
	extSc := rns.NewExtendScratch(alpha, params.N())
	dIn, dOut := uniform(digit), params.QPBasis.NewPoly()
	m["rns.extend_us"] = medianUs(rnsCalls, func() { ext.ExtendWith(dIn, dOut, extSc) })
	md := rns.NewModDown(params.QBasis, params.PBasis)
	mdSc := md.NewScratch()
	cQ, cP, mdOut := uniform(params.QBasis), uniform(params.PBasis), params.QBasis.NewPoly()
	m["rns.moddown_us"] = medianUs(rnsCalls, func() { md.ApplyWith(cQ, cP, mdOut, mdSc) })
	m["rns.moddown_coeff_us"] = medianUs(rnsCalls, func() { md.ApplyCoeffWith(cQ, cP, mdOut, mdSc) })
	m["rns.rescale_us"] = medianUs(rnsCalls, func() { params.QBasis.DivRoundByLastModulus(cQ, true) })

	// rlwe: one external product and one Galois key switch at the top level.
	kg := rlwe.NewKeyGenerator(params, uint64(seed)+1)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	ks := rlwe.NewKeySwitcher(params)
	sc := ks.NewScratch()
	ct := rlwe.NewEncryptor(params, sk, uint64(seed)+2).EncryptZeroAtLevel(params.MaxLevel())
	out := rlwe.NewCiphertext(params, ct.Level())
	rgsw := kg.GenRGSWConstant(1, sk)
	// Blind rotation hands the external product a coefficient-form
	// accumulator, so that is the form timed here.
	coeff := ct.CopyNew()
	coeff.IsNTT = false
	m["rlwe.extprod_us"] = medianUs(rlweCalls, func() { ks.ExternalProductInto(out, coeff, rgsw, sc) })
	g := r0.GaloisElementForRotation(1)
	gk := kg.GenGaloisKey(g, sk)
	m["rlwe.galois_ks_us"] = medianUs(rlweCalls, func() { ks.AutomorphismInto(out, ct, g, gk, sc) })

	// tfhe: one whole blind rotation on one thread — binary secret at the
	// paper ring (what boot_paper_ring fans out), ternary at heapd's test ring
	// (what the serve workloads make heapd do).
	rotMs := func(cfg heap.ContextConfig, count, calls int) (float64, error) {
		cfg.Seed = uint64(seed) + 3
		ctx, err := heap.NewContext(cfg)
		if err != nil {
			return 0, err
		}
		v := make([]complex128, cfg.Slots)
		lwe := ctx.Boot.PrepareSparse(ctx.Client.EncryptAtLevel(v, 1), count).LWEs[0]
		acc, rsc := ctx.Boot.NewAccumulator(), ctx.Boot.NewRotateScratch()
		return medianUs(calls, func() { ctx.Boot.BlindRotateOneInto(acc, lwe, rsc) }) / 1e3, nil
	}
	cfg.Slots = 8
	cfg.Bootstrap.NT = 16
	if m["tfhe.rot_ms_binary_1t"], err = rotMs(cfg, 16, 5); err != nil {
		return err
	}
	if m["tfhe.rot_ms_ternary_1t"], err = rotMs(heap.TestContextConfig(), 2, 20); err != nil {
		return err
	}
	return nil
}
