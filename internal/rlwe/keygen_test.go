package rlwe

import (
	"encoding/binary"
	"hash/crc32"
	"math/big"
	"runtime"
	"testing"

	"heap/internal/ring"
	"heap/internal/rns"
)

// serialGenGadget is GenGadgetCiphertext as it was before key generation
// fanned its limb arithmetic out: each row drawn and then computed on the
// caller's goroutine, with a fresh temporary per limb. The pipelined
// generator is held to it word for word.
func serialGenGadget(kg *KeyGenerator, msg rns.Poly, sk *SecretKey) *GadgetCiphertext {
	p := kg.params
	factors := p.GadgetFactors()
	dnum := len(factors)
	gct := &GadgetCiphertext{B: make([]rns.Poly, dnum), A: make([]rns.Poly, dnum)}
	qp := p.QPBasis
	for j := 0; j < dnum; j++ {
		a := qp.NewPoly()
		for i, r := range qp.Rings {
			kg.sampler.UniformPoly(r, a.Limbs[i])
		}
		eSigned := kg.sampler.GaussianSigned(p.N(), p.Sigma)
		b := qp.NewPoly()
		qp.SetSigned(eSigned, b)
		qp.NTT(b)
		for i, r := range qp.Rings {
			tmp := r.NewPoly()
			r.MulCoeffs(a.Limbs[i], sk.NTTQP.Limbs[i], tmp)
			r.Sub(b.Limbs[i], tmp, b.Limbs[i])
			fi := new(big.Int).Mod(factors[j], new(big.Int).SetUint64(r.Mod.Q)).Uint64()
			r.MulScalar(msg.Limbs[i], fi, tmp)
			r.Add(b.Limbs[i], tmp, b.Limbs[i])
		}
		gct.B[j], gct.A[j] = b, a
	}
	return gct
}

// serialRGSWConstant is GenRGSWConstant on serialGenGadget.
func serialRGSWConstant(kg *KeyGenerator, m int64, sk *SecretKey) *RGSWCiphertext {
	qp := kg.params.QPBasis
	msg := qp.NewPoly()
	v := make([]int64, kg.params.N())
	v[0] = m
	qp.SetSigned(v, msg)
	qp.NTT(msg)
	ms := qp.NewPoly()
	qp.MulCoeffs(msg, sk.NTTQP, ms)
	return &RGSWCiphertext{C0: serialGenGadget(kg, msg, sk), C1: serialGenGadget(kg, ms, sk)}
}

// keyCRCs generates one key of every kind from a fresh generator — the
// relinearization key, Galois keys, the packing keys, a key-switching key,
// binary and ternary blind-rotate rows (a ternary key's Plus and Minus
// constants interleaved, as tfhe.GenBlindRotateKey orders them) and an LWE
// key-switching key — in one fixed sequence of draws, and returns the CRC of
// each kind's serialization. The pipelined run takes the Galois, packing and
// relinearization keys through their own entry points; the serial run builds
// the same messages and encrypts each with serialGenGadget.
func keyCRCs(t *testing.T, p *Parameters, serial bool) map[string]uint32 {
	t.Helper()
	kg := NewKeyGenerator(p, 91)
	sk := kg.GenSecretKey(SecretTernary)
	sk2 := kg.GenSecretKey(SecretTernary)
	lweB := kg.GenLWESecretKey(6, SecretBinary)
	lweT := kg.GenLWESecretKey(6, SecretTernary)
	qp := p.QPBasis
	r0 := p.QBasis.Rings[0]
	galois := []uint64{r0.GaloisElementForRotation(1), r0.GaloisElementForRotation(-1), r0.GaloisElementConjugate()}
	var packing []uint64
	for step := 2; step <= p.N(); step <<= 1 {
		packing = append(packing, uint64(step+1))
	}
	sigma := func(g uint64) rns.Poly {
		sg := qp.NewPoly()
		qp.AutomorphismNTT(sk.NTTQP, qp.Rings[0].AutomorphismNTTIndex(g), sg)
		return sg
	}
	out := map[string]uint32{}
	crc := func(kind string, gs ...*GadgetCiphertext) {
		var raw []byte
		for _, g := range gs {
			var err error
			if raw, err = g.AppendBinary(raw); err != nil {
				t.Fatal(err)
			}
		}
		out[kind] = crc32.ChecksumIEEE(raw)
	}
	rgswCRC := func(kind string, rows []*RGSWCiphertext) {
		var gs []*GadgetCiphertext
		for _, r := range rows {
			gs = append(gs, r.C0, r.C1)
		}
		crc(kind, gs...)
	}

	if serial {
		s2 := qp.NewPoly()
		qp.MulCoeffs(sk.NTTQP, sk.NTTQP, s2)
		crc("relin", serialGenGadget(kg, s2, sk))
		var gs []*GadgetCiphertext
		for _, g := range galois {
			gs = append(gs, serialGenGadget(kg, sigma(g), sk))
		}
		crc("galois", gs...)
		gs = nil
		for _, g := range packing {
			gs = append(gs, serialGenGadget(kg, sigma(g), sk))
		}
		crc("packing", gs...)
	} else {
		crc("relin", kg.GenRelinearizationKey(sk))
		crc("galois", kg.GenGaloisKeys(galois, sk)...)
		pk := kg.GenPackingKeys(sk)
		var gs []*GadgetCiphertext
		for _, g := range packing {
			gs = append(gs, pk.Keys[g])
		}
		crc("packing", gs...)
	}
	constants := kg.GenRGSWConstants
	if serial {
		crc("keyswitch", serialGenGadget(kg, sk2.NTTQP, sk))
		constants = func(ms []int64, sk *SecretKey) []*RGSWCiphertext {
			out := make([]*RGSWCiphertext, len(ms))
			for i, m := range ms {
				out[i] = serialRGSWConstant(kg, m, sk)
			}
			return out
		}
	} else {
		crc("keyswitch", kg.GenKeySwitchKey(sk2, sk))
	}
	rgswCRC("brk-binary", constants(lweB.Signed, sk))
	var ms []int64
	for _, s := range lweT.Signed {
		ms = append(ms, max(s, 0), max(-s, 0))
	}
	rgswCRC("brk-ternary", constants(ms, sk))

	ksk := GenLWEKeySwitchKey(sk.Signed, lweB.Signed, uint64(2*p.N())<<4, 4, ring.NewSampler(93), p.Sigma)
	raw := make([]byte, 8*len(ksk.rows))
	for i, v := range ksk.rows {
		binary.LittleEndian.PutUint64(raw[8*i:], v)
	}
	out["lwe-ksk"] = crc32.ChecksumIEEE(raw)
	return out
}

// parentKeyCRCs are keyCRCs' values at the ring of TestKeyGenWidthChangesNothing
// as the serial generator computed them before the pipelined one replaced it:
// the pipelined keys are those bytes, not just the serial reference's.
var parentKeyCRCs = map[string]uint32{
	"relin":       0xe4293907,
	"galois":      0x501d6211,
	"packing":     0x64aadb55,
	"keyswitch":   0x53308d34,
	"brk-binary":  0x724fa627,
	"brk-ternary": 0x7a4dbc4d,
	"lwe-ksk":     0x1a7bb18a,
}

// TestKeyGenWidthChangesNothing generates every kind of key at the smallest
// ring whose key generation fans out, at 1, 2 and 4 processors, and requires
// the bytes of each — by CRC — to equal those of the serial generator and the
// recorded values. Only the schedule of the limb arithmetic may depend on the
// width: every random word is drawn on the caller's goroutine, in the serial
// order.
func TestKeyGenWidthChangesNothing(t *testing.T) {
	p, _, _ := fanFixture(t, 10)
	if p.N() < minFanDegree {
		t.Fatalf("fixture ring N=%d does not fan", p.N())
	}
	want := keyCRCs(t, p, true)
	for kind, crc := range parentKeyCRCs {
		if want[kind] != crc {
			t.Errorf("serial %s key: CRC %#x, recorded %#x", kind, want[kind], crc)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		before := runtime.NumGoroutine()
		got := keyCRCs(t, p, false)
		waitGoroutines(t, before)
		for kind, crc := range want {
			if got[kind] != crc {
				t.Errorf("GOMAXPROCS=%d: %s key CRC %#x, serial %#x", procs, kind, got[kind], crc)
			}
		}
	}
}
