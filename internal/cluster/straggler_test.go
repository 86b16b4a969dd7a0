package cluster_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
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
// straggles, under the default Options: the only recovery path is the
// progress deadline. Every node has its own bootstrapper built from the
// shared seed, as a deployed node does, so each records on its own recorder.
// Every iteration is checked limb for limb against the local bootstrap of the
// same ciphertext. Rows:
//
//   - healthy: both secondaries at full speed;
//   - slow-5ms, slow-50ms: secondary 0 sleeps that long before every frame it
//     writes (FaultPlan.WriteDelay);
//   - wedged: secondary 0 writes nothing after its join ack (StallWriteAfter);
//   - idle-death: secondary 0 serves its first batch and then wedges, and the
//     link to secondary 1 is cut 128 accumulators into its stream, so the
//     requeued work can land on the wedged node.
//
// Run one cell per process for paired comparisons:
//
//	go test -run '^$' -bench 'StragglerMatrix/slow-50ms$' -benchtime 1x ./internal/cluster/
//
// The reassigned/op and failed/op metrics are Stats.Reassigned and the
// number of failed nodes per bootstrap.
func BenchmarkStragglerMatrix(b *testing.B) {
	logN := 10
	q := ring.GenerateNTTPrimes(30, logN, 4)
	p := ring.GenerateNTTPrimesUp(31, logN, 2)
	params := ckks.MustParameters(logN, q, p, ring.DefaultSigma, 2, float64(uint64(1)<<28), 1<<(logN-1))
	boot := func() (*core.Bootstrapper, *rlwe.SecretKey) {
		kg := rlwe.NewKeyGenerator(params.Parameters, 90)
		sk := kg.GenSecretKey(rlwe.SecretTernary)
		cfg := core.DefaultConfig()
		cfg.NT = 16
		cfg.Workers = 2
		bt, err := core.NewBootstrapper(params, kg, sk, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return bt, sk
	}
	bt, sk := boot()
	nodeBoots := make([]*core.Bootstrapper, 2)
	for k := range nodeBoots {
		nodeBoots[k], _ = boot()
		nodeBoots[k].Cfg.Workers = runtime.GOMAXPROCS(0) // a node fans over every core, as heapd's does
	}
	v := make([]complex128, params.Slots)
	for i := range v {
		v[i] = complex(0.3*float64(i%7)/7, 0)
	}
	ct := ckks.NewClient(params, sk, 91).EncryptAtLevel(v, 1)
	local := bt.Bootstrap(ct.CopyNew())
	accWire := int(WireSize(AccPayloadBound(params.Parameters)))

	for _, row := range []string{"healthy", "slow-5ms", "slow-50ms", "wedged", "idle-death"} {
		b.Run(row, func(b *testing.B) {
			var reassigned, failed int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var ends []Conn
				nodes := make([]*Node, len(nodeBoots))
				servers := make([]*serve.Server, len(nodes))
				served := make(chan error, len(nodes))
				for k := range nodes {
					pri, sec := stragglerLink(row, k, accWire)
					ends = append(ends, pri, sec)
					servers[k] = serve.NewServer(nodeBoots[k], serve.Config{})
					go func() { served <- servers[k].ServeConn(sec) }()
					nodes[k] = &Node{Conn: pri, Name: fmt.Sprintf("sec-%d", k)}
				}
				in := ct.CopyNew()
				b.StartTimer()
				out, stats, err := (&Primary{Boot: bt}).Bootstrap(context.Background(), in, nodes, DefaultOptions())
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if lb := params.QBasis.AtLevel(local.Level()); !lb.Equal(local.C0, out.C0) || !lb.Equal(local.C1, out.C1) {
					b.Fatal("result differs from the local bootstrap")
				}
				reassigned += stats.Reassigned
				for _, ns := range stats.Nodes {
					if ns.Failed {
						failed++
					}
				}
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
			b.ReportMetric(float64(reassigned)/float64(b.N), "reassigned/op")
			b.ReportMetric(float64(failed)/float64(b.N), "failed/op")
		})
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
