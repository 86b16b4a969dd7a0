package cluster

import (
	"testing"

	"heap/internal/ckks"
	"heap/internal/core"
	"heap/internal/rlwe"
)

// Bridges to the external package cluster_test (see fixture_test.go): the
// shared fixture and the few unexported names its tests use.
var (
	BuildNode             = buildNode
	FixtureNode           = fixtureNode
	AssertBitExact        = assertBitExact
	TestOpts              = testOptions
	AssertNoGoroutineLeak = assertNoGoroutineLeak
	CloseConn             = closeConn
	DecodeKeyOffer        = decodeKeyOffer
	EncodeKeyResume       = encodeKeyResume
)

const (
	HelloPayloadSize = helloPayloadSize
	FrameHeaderSize  = frameHeaderSize
)

// Encode is the offer's wire form.
func (o KeyOffer) Encode() []byte { return o.encode() }

// Fixture builds the shared fixture and returns its parameters, client,
// bootstrapper and level-1 input ciphertext.
func Fixture(t *testing.T) (*ckks.Parameters, *ckks.Client, *core.Bootstrapper, *rlwe.Ciphertext) {
	fixture(t)
	return fx.params, fx.cl, fx.bt, fx.ct
}

// SetKeyChunk cuts p's key uploads into chunks of n bytes, so the test
// fixtures' small keys span many chunks.
func SetKeyChunk(p *Primary, n int) { p.keyChunk = n }
