// Package cluster realizes the paper's §V multi-node system (Figure 4) with
// real byte streams: a primary node runs steps 1–2 of Algorithm 2, fans the
// independent LWE ciphertexts out to secondary nodes over duplex
// connections (the software analog of the 100G CMAC links — net.Pipe in
// tests, net.Conn for actual TCP deployments), the secondaries blind-rotate
// and stream their accumulator ciphertexts back as soon as each completes,
// and the primary repacks and finishes the bootstrap. A secondary is
// internal/serve's Server, heapd's blind-rotation server, with one tenant:
// its primary (PrimaryTenant).
//
// Primary.Bootstrap is the one entry point. The primary dials every node
// (the paper's fixed set of FPGAs, provisioned ahead of time) and puts the n
// extracted LWE indices on a shared work queue that the secondaries and the
// primary's own local workers drain alike; a secondary takes a shrinking
// share of the queued tasks per dispatch batch (guided self-scheduling).
//
// The layer is fault-tolerant. Because the n extracted LWE ciphertexts are
// mutually independent (the property §V exploits for parallelism), a lost
// node costs only its unfinished tasks. The wire protocol is framed and
// CRC32-checksummed (frame.go) with one version/params handshake for every
// link (conversation.go), batches carry per-shard sequence numbers so partial
// accumulator streams are detected, every round trip on a link is bounded by
// a deadline on its Conn, and a failed, wedged or straggling secondary is
// given up: its link is closed and its pending LWE indices go back on the
// queue for healthy nodes or the primary's own compute (scheduler.go). A link
// that awaits accumulators must deliver one tile's worth within twice the
// slowest tile the primary's own workers have rotated in the run (the
// progress deadline, tileClock), so a straggler takes the same one recovery
// path as a cut link. A restarted node returns when the next run dials it.
// The whole failure matrix is exercised deterministically by the FaultConn
// chaos wrapper (chaos.go).
//
// A node whose join ack says key-cold (a stock heapd) is sent the
// blind-rotate key in CRC-framed acked chunks before any work
// (keystream.go). The node's registry keeps the partial key across
// connections, so an upload cut mid-stream resumes from the last acked chunk
// on the next run's link.
//
// A bootstrap therefore always completes — bit-identical to local execution
// — as long as the primary itself survives, degrading gracefully to pure
// local compute with zero live peers.
//
// Key material is generated offline on every node from the shared seed,
// matching the paper's "brk public keys can be computed offline and must be
// generated in advance" — except on a key-cold node, which receives the
// (public) brk over the key-streaming channel; no secret ever crosses a
// connection.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"heap/internal/core"
	"heap/internal/obs"
	"heap/internal/rlwe"
	"heap/internal/tfhe"
)

// Primary drives a distributed bootstrap over a set of connections to
// secondaries. With zero connections (or zero healthy ones) it degrades to
// local execution.
type Primary struct {
	Boot *core.Bootstrapper

	// keyChunk is the key upload's chunk size: keyChunkBytes when 0, which
	// it is outside the tests that cut a small key into many chunks.
	keyChunk int

	// keyHigh is, per node name, one past the highest key chunk ever sent
	// to that node. It outlives runs, so the chunk in flight when a link is
	// cut in one run and sent again on the next run's link is counted as
	// re-sent.
	mu      sync.Mutex
	keyHigh map[string]uint32
}

// runState is the shared state of one distributed bootstrap run.
type runState struct {
	ctx   context.Context
	prep  *core.PreparedBootstrap
	accs  []*rlwe.Ciphertext
	stats *Stats
	q     *workQueue
	sink  *accSink
	clock *tileClock
	rec   obs.Recorder
	opts  Options

	mu sync.Mutex // guards stats

	keyOnce sync.Once
	keyBlob []byte
	keyCRC  uint32
	keyErr  error
}

// complete records idx's accumulator and feeds it to the merge sink. An
// index is in one task at a time, so only the worker holding it writes its
// slot.
func (rs *runState) complete(idx int, acc *rlwe.Ciphertext) {
	rs.accs[idx] = acc
	rs.q.done(1)
	rs.sink.deliver(idx, acc)
}

// pendingOf returns the indices of task whose accumulators have not arrived
// — the set a failing node hands back to the queue. Only the worker holding
// task calls it.
func (rs *runState) pendingOf(task []int) []int {
	pending := make([]int, 0, len(task))
	for _, idx := range task {
		if rs.accs[idx] == nil {
			pending = append(pending, idx)
		}
	}
	return pending
}

// Bootstrap is the distributed bootstrap (§V, Figure 4): the primary
// prepares the n independent LWE ciphertexts, fans their blind rotations out
// over a shared work queue, and repacks the accumulators as they stream back.
// nodes are connections the caller dialed, which the primary joins before
// their first batch (conversation.go); a node whose ack says key-cold is sent
// the whole key first. The secondaries and the primary's local workers all
// drain one queue of tasks, so a fast node or the local compute picks up
// whatever a slow or failed node left. A secondary whose link fails —
// connection error, frame corruption, timeout, death mid-stream — is given
// up: the accumulators that arrived are kept and the rest of its task goes
// back on the queue. A link that delivers no tile's worth of accumulators
// within twice the slowest local tile fails the same way (tileClock). A
// restarted node comes back when the next run dials it. The result is
// bit-identical to the local bootstrap.
//
// The returned Stats say where every rotation actually ran. The error is
// non-nil only when the bootstrap itself could not complete (context
// cancelled, local compute panicked, bad input); per-node failures are
// reported by Stats.NodeErrors.
func (p *Primary) Bootstrap(ctx context.Context, ct *rlwe.Ciphertext, nodes []*Node, opts Options) (*rlwe.Ciphertext, *Stats, error) {
	prep, err := p.prepare(ct)
	if err != nil {
		return nil, nil, err
	}
	n := len(prep.LWEs)
	rec := p.Boot.Recorder()

	stats := &Stats{Nodes: make([]NodeStats, len(nodes)), Total: n}
	for k := range nodes {
		name := nodes[k].Name
		if name == "" {
			name = fmt.Sprintf("secondary-%d", k)
		}
		stats.Nodes[k].Name = name
	}

	// Tasks hold at most one tile (the key-major engine's unit) and at most
	// ⌊n / starting workers⌋ indices, so there are at least as many tasks as
	// starting workers; with fill leaving each worker yet to draw a task,
	// every starting worker — secondary or local — draws one and a small
	// bootstrap still fans over all of them.
	lw := max(p.Boot.Cfg.Workers, 1)
	workers := len(nodes) + lw
	q := newWorkQueue(n, max(min(tfhe.Tile, n/workers), 1), workers)
	// Streaming repack (§V): every accumulator is fed to the merge collector
	// the moment it arrives — from the network read loops and the local
	// workers alike — so the merge tree runs concurrently with the
	// blind-rotate/network tail and Finish only has the trace left to do.
	mc, err := p.Boot.NewMergeCollector(n)
	if err != nil {
		return nil, nil, err
	}
	q.rec = rec
	sink := &accSink{mc: mc, q: q}

	rs := &runState{
		ctx:   ctx,
		prep:  prep,
		accs:  make([]*rlwe.Ciphertext, n),
		stats: stats,
		q:     q,
		sink:  sink,
		clock: newTileClock(lw),
		rec:   rec,
		opts:  opts,
	}

	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	q.push(all)
	return p.runBootstrap(rs, nodes, lw)
}

// runBootstrap runs the fan-out phase over the nodes and the local workers,
// waits for completion, and finishes the repack.
func (p *Primary) runBootstrap(rs *runState, nodes []*Node, lw int) (*rlwe.Ciphertext, *Stats, error) {
	ctx, q, rec, stats := rs.ctx, rs.q, rs.rec, rs.stats

	// Propagate cancellation into the queue.
	stop := make(chan struct{})
	defer close(stop)
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				q.abort()
			case <-stop:
			}
		}()
	}

	// The whole fan-out — network dispatch, remote rotations, local fallback
	// compute, and the streamed portion of the merge tree — is the pipeline's
	// BlindRotate phase; per-node and per-worker activity lands on shard
	// lanes inside it (nodes on lanes 0..len(nodes)-1, local workers after).
	brTok := rec.Begin(obs.StageBlindRotate, obs.LanePipeline)
	var wg sync.WaitGroup
	for k := range nodes {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			p.runNode(nodes[k], &stats.Nodes[k], k, rs)
		}(k)
	}

	localErrs := make([]error, lw)
	for w := 0; w < lw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			localErrs[w] = p.runLocal(w, len(nodes)+w, rs)
		}(w)
	}

	wg.Wait()
	rec.End(obs.StageBlindRotate, obs.LanePipeline, brTok)

	prep, accs, sink, n := rs.prep, rs.accs, rs.sink, rs.stats.Total
	if missing := prep.Missing(accs); len(missing) != 0 {
		errs := []error{fmt.Errorf("cluster: bootstrap incomplete: %d of %d rotations missing", len(missing), n)}
		if cerr := ctx.Err(); cerr != nil {
			errs = append(errs, cerr)
		}
		errs = append(errs, localErrs...)
		if serr := sink.takeErr(); serr != nil {
			errs = append(errs, serr)
		}
		if nerr := stats.NodeErrors(); nerr != nil {
			errs = append(errs, nerr)
		}
		return nil, stats, errors.Join(errs...)
	}
	if serr := sink.takeErr(); serr != nil {
		return nil, stats, serr
	}
	// The streamed merge tree ran inside the BlindRotate phase; what is left
	// of Repack here is only the final bookkeeping read.
	rpTok := rec.Begin(obs.StageRepack, obs.LanePipeline)
	merged, err := sink.mc.Merged()
	rec.End(obs.StageRepack, obs.LanePipeline, rpTok)
	if err != nil {
		return nil, stats, err
	}
	out, err := p.finishMerged(prep, merged)
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// accSink feeds arriving accumulators into the merge collector from the
// goroutine that received them. A merge failure (or panic) is latched and
// aborts the work queue: the bootstrap cannot complete without its tree.
type accSink struct {
	mc  *core.MergeCollector
	q   *workQueue
	mu  sync.Mutex
	err error
}

// deliver hands accumulator idx to the collector, performing whatever merges
// it completes right here in the delivering goroutine.
func (s *accSink) deliver(idx int, acc *rlwe.Ciphertext) {
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("cluster: merge of accumulator %d: %v", idx, r)
			}
		}()
		return s.mc.Add(idx, acc)
	}()
	if err != nil {
		s.mu.Lock()
		if s.err == nil {
			s.err = err
		}
		s.mu.Unlock()
		s.q.abort()
	}
}

func (s *accSink) takeErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// runNode feeds one secondary until the queue drains or its link fails; a
// failed link is given up and whatever the node had not finished goes back
// on the queue. The node is joined when it draws its first task, and a node
// whose ack says key-cold hands that task back and is sent the whole
// blind-rotate key (resumable) before it draws again.
func (p *Primary) runNode(node *Node, ns *NodeStats, lane int, rs *runState) {
	q, opts, conn := rs.q, rs.opts, node.Conn

	// fail takes the node out of the run: the link is closed and the
	// unclaimed part of task goes back on the queue.
	fail := func(task []int, err error) {
		pending := rs.pendingOf(task)
		rs.mu.Lock()
		ns.Failed = true
		ns.Err = fmt.Errorf("cluster: shard %q: %w", ns.Name, err)
		rs.stats.Reassigned += len(pending)
		rs.mu.Unlock()
		closeConn(conn)
		q.push(pending)
	}

	// pop draws a task and tops it up into one dispatch batch by guided
	// self-scheduling: the node takes ⌈queued / (nodes + 1)⌉ indices, the
	// primary's local workers sharing one part. An early batch is thus about
	// one node's share of n, enough for whole key-major tiles on each of the
	// secondary's workers and one round trip for many tiles; batches shrink
	// to a single task as the queue drains, which keeps the tail balanced.
	// The hello's MaxBatch (N) caps a batch.
	parts := len(rs.stats.Nodes) + 1
	pop := func() []int {
		if task := q.pop(); task != nil {
			return q.fill(task, parts, p.Boot.Params.N())
		}
		return nil
	}

	// The node is joined under the name of the one tenant it serves.
	task := pop()
	if task == nil {
		return
	}
	disarm := armTimeout(conn, opts.BatchTimeout)
	peer, err := Join(conn, HelloFor(p.Boot), PrimaryTenant, p.Boot.Recorder())
	disarm()
	if err != nil {
		fail(task, err)
		return
	}
	// A key-cold node gets no work until its whole key is in: the task goes
	// back on the queue while the key streams.
	if peer.Flags&HelloFlagKeyWarm == 0 {
		q.push(task)
		if err := p.uploadKey(ns, conn, rs); err != nil {
			fail(nil, fmt.Errorf("key upload: %w", err))
			return
		}
		task = pop()
	}

	for batch := uint32(0); task != nil; batch++ {
		err := p.dispatchBatch(conn, batch, lane, task, ns, rs)
		if err == nil {
			task = pop()
			continue
		}
		// The stream broke or missed its progress deadline: the accumulators
		// that arrived are kept and the link is given up. A batch whose every
		// index had already arrived (one cut after its last accumulator)
		// leaves the node failed only if the queue still has work for it,
		// which goes straight back.
		if len(rs.pendingOf(task)) == 0 {
			if task = q.pop(); task == nil {
				closeConn(conn)
				return
			}
		}
		fail(task, err)
		return
	}
}

// uploadKey streams the blind-rotate key to a key-cold node, resuming from
// the receiver's last acked chunk.
func (p *Primary) uploadKey(ns *NodeStats, conn Conn, rs *runState) error {
	blob, crc, err := rs.keyBlobBytes(p)
	if err != nil {
		return err
	}
	p.mu.Lock()
	high := p.keyHigh[ns.Name]
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		if p.keyHigh == nil {
			p.keyHigh = make(map[string]uint32)
		}
		p.keyHigh[ns.Name] = high
		p.mu.Unlock()
	}()
	chunk := p.keyChunk
	if chunk <= 0 {
		chunk = keyChunkBytes
	}
	return sendKey(conn, blob, crc, chunk, rs.opts.BatchTimeout, p.Boot.Recorder(), &high)
}

// runLocal is the primary's own compute: it drains queue tasks — its share
// of the initial tasks and anything reassigned after a secondary failure —
// through the key-major tile engine. A task never exceeds one tile, so the
// BRK streams through cache once per task, not once per index, and finished
// accumulators reach the streaming merge sink task by task, preserving the
// repack overlap. Each tile feeds the run's progress deadline. A panic here
// is recovered, surfaced, and aborts the bootstrap (the primary cannot fall
// back to anyone else).
func (p *Primary) runLocal(w, lane int, rs *runState) error {
	prep, q := rs.prep, rs.q
	rec := p.Boot.Recorder()
	sc := p.Boot.NewRotateScratch()
	accTile := make([]*rlwe.Ciphertext, tfhe.Tile)
	lweTile := make([]*rlwe.LWECiphertext, tfhe.Tile)
	for task := q.pop(); task != nil; task = q.pop() {
		for k, idx := range task {
			accTile[k] = p.Boot.NewAccumulator()
			lweTile[k] = prep.LWEs[idx]
		}
		tok := rec.Begin(obs.StageBlindRotate, lane)
		rs.clock.begin(w)
		err := safeRotateTile(p.Boot, accTile[:len(task)], lweTile[:len(task)], sc)
		rs.clock.end(w)
		rec.End(obs.StageBlindRotate, lane, tok)
		if err != nil {
			q.abort()
			return fmt.Errorf("cluster: local blind rotation of indices %v: %w", task, err)
		}
		for k, idx := range task {
			rs.complete(idx, accTile[k])
		}
		rs.mu.Lock()
		rs.stats.Local += len(task)
		rs.mu.Unlock()
	}
	return nil
}

// dispatchBatch sends one LWE batch and collects the accumulator stream,
// marking every index complete as its accumulator arrives, so that a
// failure mid-stream loses only the not-yet-received indices. The link runs
// on the progress deadline (tileClock): each tile's worth of accumulators
// that arrives re-arms it. The batch frame carries the primary's deadline
// budget (BatchTimeout and any context deadline, whichever is tighter) so
// the secondary can abandon work it cannot finish in time.
func (p *Primary) dispatchBatch(conn Conn, shard uint32, lane int, idxs []int, ns *NodeStats, rs *runState) error {
	prep, opts := rs.prep, rs.opts
	rec := p.Boot.Recorder()
	wait := rs.clock.arm(conn, opts.BatchTimeout)
	defer rs.clock.disarm(wait)
	wrap := func(err error) error {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return fmt.Errorf("cluster: batch %d %s: %w", shard, rs.clock.timeout(wait, opts.BatchTimeout), err)
		}
		return err
	}

	budget := opts.BatchTimeout
	if dl, ok := rs.ctx.Deadline(); ok {
		if rem := time.Until(dl); budget <= 0 || rem < budget {
			budget = rem
		}
	}
	sendTok := rec.Begin(obs.StageNetSend, lane)
	err := SendBatch(conn, shard, idxs, prep.LWEs, budget, rec)
	rec.End(obs.StageNetSend, lane, sendTok)
	if err != nil {
		return wrap(fmt.Errorf("cluster: batch send: %w", err))
	}
	rs.mu.Lock()
	ns.Dispatched += len(idxs)
	rs.mu.Unlock()

	// Whatever is still outstanding when the stream ends — cleanly or not —
	// leaves flight here. Progress is counted per tile's worth, not per
	// frame: a node that trickles frames slower than tiles is still cut.
	outstanding := len(idxs)
	tileWorth := min(tfhe.Tile, outstanding)
	rec.Gauge(obs.GaugeInFlightShards, int64(outstanding))
	defer func() { rec.Gauge(obs.GaugeInFlightShards, -int64(outstanding)) }()
	recvTok := rec.Begin(obs.StageNetRecv, lane)
	defer rec.End(obs.StageNetRecv, lane, recvTok)
	err = ReadAccs(conn, shard, idxs, p.Boot.Params.Parameters, rec, func(idx int, acc *rlwe.Ciphertext) {
		outstanding--
		rec.Gauge(obs.GaugeInFlightShards, -1)
		if tileWorth--; tileWorth == 0 {
			rs.clock.progress(wait)
			tileWorth = min(tfhe.Tile, outstanding)
		}
		rs.mu.Lock()
		ns.Completed++
		rs.mu.Unlock()
		rs.complete(idx, acc)
	})
	var end *EndError
	if errors.As(err, &end) {
		return fmt.Errorf("cluster: remote failure: %s", end.Reason)
	}
	return wrap(err)
}

// prepare wraps core.Prepare, converting its input-validation panics into
// errors.
func (p *Primary) prepare(ct *rlwe.Ciphertext) (prep *core.PreparedBootstrap, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cluster: prepare: %v", r)
		}
	}()
	return p.Boot.Prepare(ct), nil
}

// finishMerged wraps core.FinishMerged the same way.
func (p *Primary) finishMerged(prep *core.PreparedBootstrap, merged *rlwe.Ciphertext) (out *rlwe.Ciphertext, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cluster: finish: %v", r)
		}
	}()
	return p.Boot.FinishMerged(prep, merged)
}

// safeRotateTile runs BlindRotateTile with panic recovery, so one malformed
// LWE ciphertext cannot take down a node. The caller owns the accumulators
// and the arena; on error the accumulators' contents are unspecified.
func safeRotateTile(bt *core.Bootstrapper, accs []*rlwe.Ciphertext, lwes []*rlwe.LWECiphertext, sc *tfhe.Scratch) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	bt.BlindRotateTile(accs, lwes, sc)
	return nil
}

// Shutdown tells a secondary to stop serving.
func Shutdown(conn io.Writer) error {
	return WriteFrame(conn, &Frame{Kind: FrameShutdown})
}
