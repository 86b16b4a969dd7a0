package core

import (
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"slices"
	"testing"
)

// parentBootKeyCRCs are bootKeyCRCs' values as NewBootstrapper computed them
// when it generated the LWE key-switching key after the blind-rotate key, on
// one goroutine.
var parentBootKeyCRCs = map[string]uint32{
	"brk":     0xb40d05ab,
	"lwe-ksk": 0x39e9d495,
	"packing": 0xca2e48e7,
}

// bootKeyCRCs returns the CRC of each key NewBootstrapper generates at
// testSetup's ring and seeds: the blind-rotate key's blob, the LWE
// key-switching key's rows and the packing keys in Galois-element order.
func bootKeyCRCs(t *testing.T, bt *Bootstrapper) map[string]uint32 {
	t.Helper()
	brk, err := bt.brk.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := reflect.ValueOf(bt.lweKSK).Elem().FieldByName("rows")
	ksk := make([]byte, 0, 8*rows.Len())
	for i := range rows.Len() {
		ksk = binary.LittleEndian.AppendUint64(ksk, rows.Index(i).Uint())
	}
	var packing []byte
	gs := make([]uint64, 0, len(bt.packKeys.Keys))
	for g := range bt.packKeys.Keys {
		gs = append(gs, g)
	}
	slices.Sort(gs)
	for _, g := range gs {
		if packing, err = bt.packKeys.Keys[g].AppendBinary(packing); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]uint32{
		"brk":     crc32.ChecksumIEEE(brk),
		"lwe-ksk": crc32.ChecksumIEEE(ksk),
		"packing": crc32.ChecksumIEEE(packing),
	}
}

// TestNewBootstrapperKeyBytes pins the bytes of every key NewBootstrapper
// generates, whichever goroutine draws them: the LWE key-switching key draws
// only from its own sampler, so generating it beside the blind-rotate key
// changes nothing.
func TestNewBootstrapperKeyBytes(t *testing.T) {
	_, _, _, bt := testSetup(t, 1)
	got := bootKeyCRCs(t, bt)
	for kind, want := range parentBootKeyCRCs {
		if got[kind] != want {
			t.Errorf("%s: CRC %#x, recorded %#x", kind, got[kind], want)
		}
	}
}
