package cluster

import (
	"encoding/binary"
	"runtime"
	"testing"

	"heap/internal/obs"
)

// Fuzz targets for the join, reason and key-streaming payload decoders,
// mirroring FuzzReadFrame/FuzzDecodeBatch: arbitrary bytes must never panic
// a decoder, every accepted value must satisfy the decoder's documented
// bounds, and accepted values must round-trip through their encoder.

func FuzzDecodeJoin(f *testing.F) {
	h := Hello{Version: ProtocolVersion, LogN: 6, MaxLevel: 3, LWEDim: 64, MaxBatch: 64, Digest: 0xDEAD, Flags: HelloFlagKeyWarm}
	f.Add(EncodeJoin(h, "node-a"))
	f.Add(EncodeJoin(h, ""))
	// A lying length prefix: nameLen = 2^32−1 with no name bytes behind it.
	lie := EncodeJoin(h, "x")
	binary.LittleEndian.PutUint32(lie[helloPayloadSize:], 0xFFFF_FFFF)
	f.Add(lie)
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, name, err := DecodeJoin(data)
		if err != nil {
			return
		}
		if len(name) > maxNodeName {
			t.Fatalf("accepted join name of %d bytes, bound is %d", len(name), maxNodeName)
		}
		re, name2, err := DecodeJoin(EncodeJoin(got, name))
		if err != nil || re != got || name2 != name {
			t.Fatalf("join round trip unstable: %v %+v/%q vs %+v/%q", err, re, name2, got, name)
		}
	})
}

// FuzzDecodeLeave fuzzes the reason payload, which a job rejection carries
// and the graceful leave carried until protocol v8 retired it; the target
// keeps the leave's name.
func FuzzDecodeLeave(f *testing.F) {
	f.Add(EncodeReason("leave requested"))
	f.Add(EncodeReason(""))
	lie := make([]byte, 4)
	binary.LittleEndian.PutUint32(lie, 0xFFFF_FFFF)
	f.Add(lie)

	f.Fuzz(func(t *testing.T, data []byte) {
		reason, err := DecodeReason(data)
		if err != nil {
			return
		}
		if len(reason) > MaxErrorPayload {
			t.Fatalf("accepted reason of %d bytes, bound is %d", len(reason), MaxErrorPayload)
		}
		if re, err := DecodeReason(EncodeReason(reason)); err != nil || re != reason {
			t.Fatalf("reason round trip unstable: %v %q vs %q", err, re, reason)
		}
	})
}

func FuzzDecodeKeyOffer(f *testing.F) {
	f.Add(KeyOffer{TotalSize: 1 << 20, ChunkSize: 64 << 10, ChunkCount: 16, BlobCRC: 0xABCD}.encode())
	f.Add(KeyOffer{TotalSize: 1, ChunkSize: 1, ChunkCount: 1}.encode())
	// Geometry lies: count does not tile the total.
	bad := KeyOffer{TotalSize: 1 << 20, ChunkSize: 64 << 10, ChunkCount: 3}.encode()
	f.Add(bad)
	f.Add([]byte{0})

	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := decodeKeyOffer(data)
		if err != nil {
			return
		}
		if o.TotalSize == 0 || o.TotalSize > 1<<40 || o.ChunkSize == 0 || o.ChunkSize > MaxKeyChunkPayload {
			t.Fatalf("accepted out-of-bounds offer %+v", o)
		}
		want := (o.TotalSize + uint64(o.ChunkSize) - 1) / uint64(o.ChunkSize)
		if uint64(o.ChunkCount) != want {
			t.Fatalf("accepted non-tiling offer %+v (want %d chunks)", o, want)
		}
		if re, err := decodeKeyOffer(o.encode()); err != nil || re != o {
			t.Fatalf("offer round trip unstable: %v %+v vs %+v", err, re, o)
		}
	})
}

func FuzzDecodeKeyResume(f *testing.F) {
	f.Add(encodeKeyResume(0, 0))
	f.Add(encodeKeyResume(41, 0xDEADBEEF))
	f.Add([]byte{9})

	f.Fuzz(func(t *testing.T, data []byte) {
		have, crc, err := decodeKeyResume(data)
		if err != nil {
			return
		}
		h2, c2, err := decodeKeyResume(encodeKeyResume(have, crc))
		if err != nil || h2 != have || c2 != crc {
			t.Fatalf("resume round trip unstable: %v %d/%#x vs %d/%#x", err, h2, c2, have, crc)
		}
	})
}

// TestDecodersBoundAllocationOnLies feeds each new decoder a payload whose
// embedded length fields claim enormous sizes and measures actual heap
// allocation: a malformed input must cost error-formatting bytes, never a
// buffer sized from attacker-controlled fields. The key-offer case goes one
// layer deeper: even a well-formed offer claiming a 1 GiB key must be
// rejected by the receiving KeyReceiver (which sizes buffers from its own
// parameters) before any buffer allocation.
func TestDecodersBoundAllocationOnLies(t *testing.T) {
	fixture(t)
	h := Hello{Version: ProtocolVersion, LogN: 6}
	joinLie := EncodeJoin(h, "x")
	binary.LittleEndian.PutUint32(joinLie[helloPayloadSize:], 0xFFFF_FFF0)
	joinLie = joinLie[:helloPayloadSize+4]
	reasonLie := make([]byte, 4)
	binary.LittleEndian.PutUint32(reasonLie, 0xFFFF_FFF0)
	giant := KeyOffer{TotalSize: 1 << 30, ChunkSize: 1 << 20, ChunkCount: 1 << 10, BlobCRC: 1}
	kr := NewKeyReceiver(fx.bt.Params.Parameters, LWEDim(fx.bt), fx.bt.BinaryKey())

	cases := []struct {
		name string
		run  func() error
	}{
		{"join", func() error { _, _, err := DecodeJoin(joinLie); return err }},
		{"reason", func() error { _, err := DecodeReason(reasonLie); return err }},
		{"offer-geometry", func() error {
			bad := giant
			bad.ChunkCount--
			_, err := decodeKeyOffer(bad.encode())
			return err
		}},
		{"offer-oversized-for-params", func() error {
			_, _, err := kr.Receive(&Frame{Kind: FrameKeyOffer, Payload: giant.encode()}, obs.Nop{})
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.run(); err == nil {
			t.Fatalf("%s: lying payload accepted", tc.name)
		}
		const rounds = 64
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for i := 0; i < rounds; i++ {
			_ = tc.run()
		}
		runtime.ReadMemStats(&m1)
		if per := (m1.TotalAlloc - m0.TotalAlloc) / rounds; per > 4096 {
			t.Errorf("%s: %d bytes allocated per malformed decode — size fields must not drive allocation", tc.name, per)
		}
	}
}

// TestJoinLeaveRoundTrip pins the happy-path codecs (the fuzzers only
// check stability of whatever the fuzzer happens to accept): the join, the
// reason payload a rejection carries (a graceful leave's until protocol v8)
// and the key offer.
func TestJoinLeaveRoundTrip(t *testing.T) {
	h := Hello{Version: ProtocolVersion, LogN: 13, MaxLevel: 7, LWEDim: 500, MaxBatch: 8192, Digest: 0xABCD1234, Flags: HelloFlagKeyWarm}
	got, name, err := DecodeJoin(EncodeJoin(h, "fpga-07"))
	if err != nil || got != h || name != "fpga-07" {
		t.Fatalf("join: %v %+v %q", err, got, name)
	}
	if reason, err := DecodeReason(EncodeReason("draining")); err != nil || reason != "draining" {
		t.Fatalf("reason: %v %q", err, reason)
	}
	o := KeyOffer{TotalSize: 2_629_656, ChunkSize: 64 << 10, ChunkCount: 41, BlobCRC: 7}
	if re, err := decodeKeyOffer(o.encode()); err != nil || re != o {
		t.Fatalf("offer: %v %+v", err, re)
	}
	// A warm and a cold hello differ only in flags and must stay compatible.
	cold := h
	cold.Flags = 0
	if err := CheckHello(h, cold); err != nil {
		t.Fatalf("key-warm flag must not break the params handshake: %v", err)
	}
}
