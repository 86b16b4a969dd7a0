package cluster

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range []*Frame{
		{Kind: FrameShutdown},
		{Kind: FrameJoinAck, Payload: EncodeHello(Hello{Version: ProtocolVersion, LogN: 6, MaxLevel: 3, LWEDim: 64, MaxBatch: 64, Digest: 0xDEAD})},
		{Kind: FrameBatch, Shard: 7, Seq: 0, Payload: []byte{1, 2, 3, 4, 5}},
		{Kind: FrameAcc, Shard: 1<<32 - 1, Seq: 1<<32 - 1, Payload: make([]byte, 4096)},
		{Kind: FrameError, Payload: []byte("it broke")},
	} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrame(&buf, len(f.Payload))
		if err != nil {
			t.Fatalf("kind %#x: %v", f.Kind, err)
		}
		if got.Kind != f.Kind || got.Shard != f.Shard || got.Seq != f.Seq || !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("round trip mismatch: sent %+v got %+v", f, got)
		}
		if buf.Len() != 0 {
			t.Fatalf("kind %#x: %d bytes left over", f.Kind, buf.Len())
		}
	}
}

// TestFrameRejectsCorruption flips every byte of an encoded frame in turn:
// the decoder must reject each mutation (or, for the length field, fail the
// bound or checksum) and must never return the corrupted payload as valid.
func TestFrameRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	orig := &Frame{Kind: FrameAcc, Shard: 3, Seq: 9, Payload: []byte("accumulator bytes")}
	if err := WriteFrame(&buf, orig); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for i := range raw {
		for _, bit := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), raw...)
			mut[i] ^= bit
			got, err := ReadFrame(bytes.NewReader(mut), len(raw))
			if err == nil {
				t.Fatalf("flipping bit %#x of byte %d went undetected: %+v", bit, i, got)
			}
		}
	}
}

func TestFrameRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Frame{Kind: FrameBatch, Payload: []byte("0123456789")}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 1; cut < len(raw); cut++ {
		if _, err := ReadFrame(bytes.NewReader(raw[:cut]), 64); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// A clean close at a frame boundary is EOF, not an error.
	if _, err := ReadFrame(bytes.NewReader(nil), 64); err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
}

// TestFrameBoundsPayload: a frame header announcing a payload beyond the
// bound must be rejected before allocation.
func TestFrameBoundsPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Frame{Kind: FrameBatch, Payload: make([]byte, 100)}); err != nil {
		t.Fatal(err)
	}
	_, err := ReadFrame(&buf, 99)
	if err == nil || !strings.Contains(err.Error(), "exceeds bound") {
		t.Fatalf("oversized payload: %v", err)
	}
}

func TestHelloRoundTripAndCheck(t *testing.T) {
	h := Hello{Version: ProtocolVersion, LogN: 13, MaxLevel: 7, LWEDim: 500, MaxBatch: 8192, Digest: 0xABCD1234}
	got, err := DecodeHello(EncodeHello(h))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("hello round trip: %+v != %+v", got, h)
	}
	if err := CheckHello(h, got); err != nil {
		t.Fatal(err)
	}
	bad := got
	// The seed's protocol, v3's two-row binary key records, v4's
	// batch-refused reply to a batch sent before key-done, and v6's hello
	// frame kind.
	for _, v := range []uint32{1, 3, 4, 6} {
		bad.Version = v
		if err := CheckHello(h, bad); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("v%d peer: %v", v, err)
		}
	}
	bad = got
	bad.Digest++
	if err := CheckHello(h, bad); err == nil {
		t.Fatal("digest mismatch accepted")
	}
	if _, err := DecodeHello([]byte{1, 2, 3}); err == nil {
		t.Fatal("short hello accepted")
	}
}

// FuzzReadFrame: arbitrary wire bytes must never panic the decoder, and
// every frame it does accept must re-encode to a decodable equal frame.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, &Frame{Kind: FrameShutdown})
	f.Add(buf.Bytes())
	buf.Reset()
	_ = WriteFrame(&buf, &Frame{Kind: FrameJoinAck, Payload: EncodeHello(Hello{Version: ProtocolVersion, LogN: 6})})
	f.Add(buf.Bytes())
	buf.Reset()
	_ = WriteFrame(&buf, &Frame{Kind: FrameAcc, Shard: 2, Seq: 5, Payload: []byte("payload")})
	raw := buf.Bytes()
	f.Add(raw)
	mut := append([]byte(nil), raw...)
	mut[9] ^= 0x40
	f.Add(mut)
	f.Add([]byte{0x4D, 0x52, 0x46, 0x48})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data), 1<<16)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, fr); err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		fr2, err := ReadFrame(&out, 1<<16)
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if fr2.Kind != fr.Kind || fr2.Shard != fr.Shard || fr2.Seq != fr.Seq || !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("accepted frame not stable: %+v vs %+v", fr, fr2)
		}
	})
}

// FuzzDecodeBatch: corrupt batch payloads (the bytes inside an already
// CRC-validated frame) must never panic or over-allocate.
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		idxs, lwes, err := DecodeBatch(data, 64, 64, 128)
		if err != nil {
			return
		}
		if len(idxs) != len(lwes) || len(idxs) == 0 || len(idxs) > 64 {
			t.Fatalf("accepted batch with inconsistent shape: %d/%d", len(idxs), len(lwes))
		}
		for i, lwe := range lwes {
			if err := lwe.Validate(64, 128); err != nil {
				t.Fatalf("accepted invalid LWE %d: %v", i, err)
			}
		}
	})
}
