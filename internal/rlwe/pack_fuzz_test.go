package rlwe

import (
	"sync"
	"testing"
)

// The repacking entry points promise errors, not panics, on malformed input
// (a malformed request must not take down a bootstrap in flight), and must
// accept every well-formed input. FuzzRepackerValidation drives Pack,
// Trace, and MergePair through adversarial shapes — non-power-of-two counts,
// mixed levels, nil entries, dropped Galois keys — and checks both halves of
// that contract. The seed corpus under testdata/fuzz covers each rejection
// branch plus the happy path.

var fuzzPack struct {
	once sync.Once
	ks   *KeySwitcher
	pk   *PackingKeys
}

func fuzzPackSetup() (*KeySwitcher, *PackingKeys) {
	fuzzPack.once.Do(func() {
		p := fuzzParams()
		kg := NewKeyGenerator(p, 210)
		sk := kg.GenSecretKey(SecretTernary)
		fuzzPack.ks = NewKeySwitcher(p)
		fuzzPack.pk = kg.GenPackingKeys(sk)
	})
	return fuzzPack.ks, fuzzPack.pk
}

func FuzzRepackerValidation(f *testing.F) {
	f.Add(uint16(4), uint16(0), uint16(0), uint16(0), uint16(4))      // valid pack of 4
	f.Add(uint16(3), uint16(0), uint16(0), uint16(0), uint16(3))      // non-power-of-two count
	f.Add(uint16(4), uint16(0b0010), uint16(0), uint16(0), uint16(4)) // mixed levels
	f.Add(uint16(4), uint16(0), uint16(0b0100), uint16(0), uint16(4)) // nil entry
	f.Add(uint16(8), uint16(0), uint16(0), uint16(1), uint16(8))      // dropped Galois key
	f.Add(uint16(33), uint16(0), uint16(0), uint16(0), uint16(0))     // count > N, trace count 0
	f.Add(uint16(1), uint16(0), uint16(0), uint16(0), uint16(64))     // single ct, trace count > N
	f.Fuzz(func(t *testing.T, rawCount, lvlBits, nilBits, dropStep, traceCount uint16) {
		ks, pk := fuzzPackSetup()
		p := ks.params
		n := p.N()

		count := int(rawCount % uint16(2*n+2)) // covers 0, valid, and > N
		cts := make([]*Ciphertext, count)
		sameLevel, allPresent := true, true
		for i := range cts {
			if nilBits&(1<<(i%16)) != 0 {
				allPresent = false
				continue
			}
			level := 1 + int(lvlBits>>(i%16))&1
			if level != 1+int(lvlBits)&1 {
				sameLevel = false
			}
			ct := NewCiphertext(p, level)
			ct.IsNTT = false
			cts[i] = ct
		}

		// Optionally drop one packing key; every Pack needs the full ladder
		// (merge steps 2..count, trace steps 2·count..N), so any drop must be
		// rejected.
		usePK := pk
		dropped := false
		if dropStep != 0 {
			steps := make([]uint64, 0, 8)
			for s := 2; s <= n; s <<= 1 {
				steps = append(steps, uint64(s+1))
			}
			g := steps[int(dropStep)%len(steps)]
			usePK = &PackingKeys{Keys: make(map[uint64]*GadgetCiphertext, len(pk.Keys))}
			for k, v := range pk.Keys {
				if k == g {
					dropped = true
					continue
				}
				usePK.Keys[k] = v
			}
		}

		valid := count >= 1 && count <= n && count&(count-1) == 0 &&
			allPresent && sameLevel && !dropped

		out, err := pack(NewRepacker(ks, usePK), cts)
		if valid && err != nil {
			t.Fatalf("well-formed pack (count=%d) rejected: %v", count, err)
		}
		if !valid && err == nil {
			t.Fatalf("malformed pack accepted: count=%d nil=%v mixed=%v dropped=%v",
				count, !allPresent, !sameLevel, dropped)
		}
		if err == nil && out == nil {
			t.Fatal("pack returned nil ciphertext with nil error")
		}

		// Trace validation: arbitrary counts must error (not panic) unless a
		// power of two in [1, N].
		tc := int(traceCount % uint16(2*n+2))
		tct := NewCiphertext(p, 1)
		tct.IsNTT = false
		_, terr := NewRepacker(ks, usePK).Trace(tct, tc)
		traceValid := tc >= 1 && tc <= n && tc&(tc-1) == 0
		if traceValid && !dropped && terr != nil {
			t.Fatalf("well-formed trace (count=%d) rejected: %v", tc, terr)
		}
		if !traceValid && terr == nil {
			t.Fatalf("malformed trace count %d accepted", tc)
		}

		// MergePair validation: mixed levels and bad spans must error.
		rp := NewRepacker(ks, usePK)
		e, o := NewCiphertext(p, 1), NewCiphertext(p, 2)
		e.IsNTT, o.IsNTT = false, false
		if _, merr := rp.MergePair(e, o, 2); merr == nil {
			t.Fatal("mixed-level MergePair accepted")
		}
		if _, merr := rp.MergePair(e, e, 3); merr == nil {
			t.Fatal("non-power-of-two merge span accepted")
		}
	})
}
