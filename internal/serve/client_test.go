package serve

import (
	"encoding/binary"
	"net"
	"testing"

	"heap/internal/cluster"
)

// TestClientChecksReplyStream scripts a server that acks the join and then
// answers a two-rotation job with a reply stream that is whole except for one
// fault: the two accumulators carry swapped seq numbers, or the batch end
// counts three. Client.Rotate must fail on either.
func TestClientChecksReplyStream(t *testing.T) {
	_, _, bt := buildBoot(t, 95, false)
	twoN := uint64(2 * bt.Params.N())
	lwes := append(syntheticJob(cluster.LWEDim(bt), twoN, 1), syntheticJob(cluster.LWEDim(bt), twoN, 2)...)
	for _, tc := range []struct {
		name  string
		seqs  [2]uint32
		count int
	}{
		{"seq-out-of-order", [2]uint32{1, 0}, 2},
		{"batch-end-count", [2]uint32{0, 1}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cc, sc := net.Pipe()
			defer cc.Close()
			defer sc.Close()
			go func() {
				if _, err := cluster.ReadFrame(sc, cluster.JoinPayloadBound); err != nil {
					return
				}
				ack := &cluster.Frame{Kind: cluster.FrameJoinAck, Payload: cluster.EncodeHello(cluster.HelloFor(bt))}
				if cluster.WriteFrame(sc, ack) != nil {
					return
				}
				f, err := cluster.ReadFrame(sc, cluster.BatchPayloadBound(bt.Params.N(), cluster.LWEDim(bt)))
				if err != nil {
					return
				}
				for idx, seq := range tc.seqs {
					payload, _ := cluster.EncodeAcc(idx, bt.NewAccumulator())
					if cluster.WriteFrame(sc, &cluster.Frame{Kind: cluster.FrameAcc, Shard: f.Shard, Seq: seq, Payload: payload}) != nil {
						return
					}
				}
				end := binary.LittleEndian.AppendUint32(nil, uint32(tc.count))
				_ = cluster.WriteFrame(sc, &cluster.Frame{Kind: cluster.FrameBatchEnd, Shard: f.Shard, Seq: 2, Payload: end})
			}()
			cl, err := NewClient(cc, bt, "scripted", nil)
			if err != nil {
				t.Fatal(err)
			}
			if accs, err := cl.Rotate(lwes, 0); err == nil {
				t.Fatalf("Rotate accepted the stream and returned %d accumulators", len(accs))
			}
		})
	}
}
