package cluster_test

import (
	"runtime"
	"sync"
	"testing"

	"heap/internal/ckks"
	. "heap/internal/cluster"
	"heap/internal/core"
	"heap/internal/rlwe"
	"heap/internal/serve"
)

// The tests of this package need a serving node, and a node is an
// internal/serve Server, which imports cluster: they live outside the
// package, speak its API unqualified (the dot import) and reach the shared
// fixture of fixture_test.go through export_test.go.

var (
	buildNode             = BuildNode
	assertBitExact        = AssertBitExact
	testOptions           = TestOpts
	assertNoGoroutineLeak = AssertNoGoroutineLeak
	closeConn             = CloseConn
	decodeKeyOffer        = DecodeKeyOffer
	encodeKeyResume       = EncodeKeyResume
)

const (
	helloPayloadSize = HelloPayloadSize
	frameHeaderSize  = FrameHeaderSize
)

// fx holds the shared fixture's parts.
var fx struct {
	once   sync.Once
	params *ckks.Parameters
	cl     *ckks.Client
	bt     *core.Bootstrapper
	ct     *rlwe.Ciphertext
}

func fixture(t *testing.T) {
	t.Helper()
	fx.once.Do(func() { fx.params, fx.cl, fx.bt, fx.ct = Fixture(t) })
}

// fixtureNode is FixtureNode with fx filled in.
func fixtureNode(t *testing.T, nt int, cold bool) *core.Bootstrapper {
	t.Helper()
	fixture(t)
	return FixtureNode(t, nt, cold)
}

// newNode is a cluster secondary: a blind-rotation server over bt, closed at
// test cleanup. Like heapd, it fans each batch over every core: bt's Workers
// becomes GOMAXPROCS, so bt must be the node's own bootstrapper.
func newNode(tb testing.TB, bt *core.Bootstrapper) *serve.Server {
	bt.Cfg.Workers = runtime.GOMAXPROCS(0)
	srv := serve.NewServer(bt, serve.Config{})
	tb.Cleanup(srv.Close)
	return srv
}

// warm reports whether node's registry holds its primary's key.
func warm(node *serve.Server) bool {
	for _, k := range node.Snapshot().Registry {
		if k.Tenant == PrimaryTenant {
			return true
		}
	}
	return false
}
