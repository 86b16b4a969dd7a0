package cluster_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heap/internal/ckks"
	. "heap/internal/cluster"
	"heap/internal/core"
	"heap/internal/ring"
	"heap/internal/rlwe"
	"heap/internal/serve"
)

// BenchmarkStragglerMatrix times one distributed bootstrap — logN 10, four
// 30-bit Q limbs, two P limbs, n_t 16, 1 024 rotations, Workers 2 on every
// node — with two in-process secondaries over net.Pipe, one of which
// straggles, under each recovery policy. Every iteration is checked limb for
// limb against the local bootstrap of the same ciphertext. Rows:
//
//   - healthy: both secondaries at full speed;
//   - slow-5ms, slow-50ms: secondary 0 sleeps that long before every frame it
//     writes (FaultPlan.WriteDelay);
//   - wedged: secondary 0 writes nothing after its hello (StallWriteAfter);
//   - idle-death: secondary 0 serves its first batch and then wedges, and the
//     link to secondary 1 is cut 128 accumulators into its stream, so the
//     requeued work can land on the wedged node.
//
// Policies: hedge (HedgeAfter 150 ms, the churn demo's value) and off
// (DefaultOptions: only the 30 s BatchTimeout bounds a wedged batch). Run one
// cell per process for paired comparisons:
//
//	go test -run '^$' -bench 'StragglerMatrix/slow-50ms/hedge$' -benchtime 1x ./internal/cluster/
//
// The hedged/op and reassigned/op metrics are Stats.Hedged and
// Stats.Reassigned per bootstrap.
func BenchmarkStragglerMatrix(b *testing.B) {
	logN := 10
	q := ring.GenerateNTTPrimes(30, logN, 4)
	p := ring.GenerateNTTPrimesUp(31, logN, 2)
	params := ckks.MustParameters(logN, q, p, ring.DefaultSigma, 2, float64(uint64(1)<<28), 1<<(logN-1))
	kg := rlwe.NewKeyGenerator(params.Parameters, 90)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	cfg := core.DefaultConfig()
	cfg.NT = 16
	cfg.Workers = 2
	// One bootstrapper plays the primary and both secondaries: every node
	// derives identical key material from the shared seed.
	bt, err := core.NewBootstrapper(params, kg, sk, cfg)
	if err != nil {
		b.Fatal(err)
	}
	v := make([]complex128, params.Slots)
	for i := range v {
		v[i] = complex(0.3*float64(i%7)/7, 0)
	}
	ct := ckks.NewClient(params, sk, 91).EncryptAtLevel(v, 1)
	local := bt.Bootstrap(ct.CopyNew())
	accWire := int(WireSize(AccPayloadBound(params.Parameters)))

	hedge := DefaultOptions()
	hedge.HedgeAfter = 150 * time.Millisecond
	policies := []struct {
		name string
		opts Options
	}{{"hedge", hedge}, {"off", DefaultOptions()}}

	for _, row := range []string{"healthy", "slow-5ms", "slow-50ms", "wedged", "idle-death"} {
		for _, pol := range policies {
			b.Run(row+"/"+pol.name, func(b *testing.B) {
				var hedged, reassigned int
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					var ends []Conn
					nodes := make([]*Node, 2)
					servers := make([]*serve.Server, len(nodes))
					served := make(chan error, len(nodes))
					for k := range nodes {
						pri, sec := stragglerLink(row, k, accWire)
						ends = append(ends, pri, sec)
						servers[k] = serve.NewServer(bt, serve.Config{Workers: bt.Cfg.Workers})
						go func() { served <- servers[k].ServeConn(sec) }()
						nodes[k] = &Node{Conn: pri, Name: fmt.Sprintf("sec-%d", k)}
					}
					in := ct.CopyNew()
					b.StartTimer()
					out, stats, err := (&Primary{Boot: bt}).Bootstrap(context.Background(), in, nodes, nil, pol.opts)
					b.StopTimer()
					if err != nil {
						b.Fatal(err)
					}
					if lb := params.QBasis.AtLevel(local.Level()); !lb.Equal(local.C0, out.C0) || !lb.Equal(local.C1, out.C1) {
						b.Fatal("result differs from the local bootstrap")
					}
					hedged += stats.Hedged
					reassigned += stats.Reassigned
					for _, c := range ends {
						_ = c.Close()
					}
					for range nodes {
						<-served
					}
					for _, srv := range servers {
						srv.Close()
					}
				}
				b.ReportMetric(float64(hedged)/float64(b.N), "hedged/op")
				b.ReportMetric(float64(reassigned)/float64(b.N), "reassigned/op")
			})
		}
	}
}

// stragglerLink returns the primary's and secondary k's ends of one link of
// the straggler matrix row.
func stragglerLink(row string, k, accWire int) (pri, sec Conn) {
	pri, sec = net.Pipe()
	switch {
	case k == 0 && row == "slow-5ms":
		sec = NewFaultConn(sec, FaultPlan{WriteDelay: 5 * time.Millisecond})
	case k == 0 && row == "slow-50ms":
		sec = NewFaultConn(sec, FaultPlan{WriteDelay: 50 * time.Millisecond})
	case k == 0 && row == "wedged":
		sec = NewFaultConn(sec, FaultPlan{StallWriteAfter: 48})
	case k == 0 && row == "idle-death":
		sec = &stallAfterBatch{Conn: sec, closed: make(chan struct{})}
	case k == 1 && row == "idle-death":
		pri = NewFaultConn(pri, FaultPlan{CutReadAfter: int(WireSize(helloPayloadSize)) + 128*accWire})
	}
	return pri, sec
}

// stallAfterBatch is a secondary's end of a link that passes writes until the
// first batch-end frame is written and then blocks every write until the link
// is closed: a node that served one batch and died.
type stallAfterBatch struct {
	Conn
	served    atomic.Bool
	closeOnce sync.Once
	closed    chan struct{}
}

func (s *stallAfterBatch) Write(p []byte) (int, error) {
	if s.served.Load() {
		<-s.closed
		return 0, io.ErrClosedPipe
	}
	n, err := s.Conn.Write(p)
	// WriteFrame writes a frame in one call; its kind is the second word.
	if len(p) >= frameHeaderSize && binary.LittleEndian.Uint32(p[4:]) == FrameBatchEnd {
		s.served.Store(true)
	}
	return n, err
}

func (s *stallAfterBatch) Close() error {
	s.closeOnce.Do(func() { close(s.closed) })
	return s.Conn.Close()
}
