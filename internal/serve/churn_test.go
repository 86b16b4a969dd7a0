package serve

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"heap/internal/cluster"
	"heap/internal/obs"
	"heap/internal/rlwe"
)

// churnJob is one pre-built job with its locally computed reference
// accumulators: the ground truth every served response is checked against.
type churnJob struct {
	lwes []*rlwe.LWECiphertext
	refs []*rlwe.Ciphertext
}

// TestCoalescerChurnPropertyBitExact is the coalescer property test: N
// tenants × M connections submitting interleaved jobs under a randomized
// seeded schedule (shuffled job order, jittered start times), checked
// against three properties that must hold under EVERY interleaving:
//
//  1. Bit-exactness — each job's accumulators are identical to the
//     tenant's own BlindRotateOne, whatever batch the coalescer put the
//     job in.
//  2. Exactly-once — no job dropped, no job double-executed: every Rotate
//     returns, returns once, with exactly one accumulator per rotation,
//     and the server-side served counter matches the client-side count.
//  3. Traffic bound — brk_bytes_streamed never exceeds the sequential
//     baseline (every job its own batch); when coalescing happened, the
//     batch count is strictly below the job count.
//
// Run under -race via `make race`, this doubles as the coalescer's
// concurrency soundness check.
func TestCoalescerChurnPropertyBitExact(t *testing.T) {
	if testing.Short() {
		t.Skip("churn rounds are slow")
	}
	const (
		tenants     = 3
		connsPer    = 3
		jobsPerConn = 4
		rotsPerJob  = 4
	)
	for _, seed := range []int64{1, 2} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			_, _, serverBt := buildBoot(t, 70, true)
			srv := NewServer(serverBt, Config{})
			l, stop := startServer(t, srv)
			defer stop()

			dim := cluster.LWEDim(serverBt)
			twoN := uint64(2 * serverBt.Params.N())
			met := srv.Metrics()

			// Sequential baseline: one isolated job on its own tenant = one
			// single-job batch = one key pass. Its BRK byte delta is what a
			// no-coalescing server would stream per job.
			_, _, baseBt := buildBoot(t, 71, false)
			baseCl := dialClient(t, l, baseBt, "baseline")
			defer baseCl.Close()
			if err := baseCl.UploadKey(0, 0); err != nil {
				t.Fatal(err)
			}
			baseJob := make([]*rlwe.LWECiphertext, rotsPerJob)
			for k := range baseJob {
				baseJob[k] = syntheticJob(dim, twoN, uint64(900+k))[0]
			}
			pre := met.Counter(obs.CounterBRKBytesStreamed)
			if _, err := baseCl.Rotate(baseJob, 0); err != nil {
				t.Fatal(err)
			}
			perJobBytes := met.Counter(obs.CounterBRKBytesStreamed) - pre
			if perJobBytes == 0 {
				t.Fatal("baseline job streamed zero BRK bytes; counter broken")
			}

			// Build the fleet: per-tenant keys, per-connection job lists with
			// locally computed references.
			type connFix struct {
				cl   *Client
				jobs []churnJob
			}
			rng := rand.New(rand.NewSource(seed))
			var fleet []connFix
			for ti := 0; ti < tenants; ti++ {
				_, _, bt := buildBoot(t, uint64(80+10*ti), false)
				name := fmt.Sprintf("churn-%d", ti)
				for c := 0; c < connsPer; c++ {
					fix := connFix{cl: dialClient(t, l, bt, name)}
					for j := 0; j < jobsPerConn; j++ {
						job := churnJob{lwes: make([]*rlwe.LWECiphertext, rotsPerJob)}
						for k := range job.lwes {
							job.lwes[k] = syntheticJob(dim, twoN, uint64(1000+1000*ti+100*c+10*j+k))[0]
							job.refs = append(job.refs, bt.BlindRotateOne(job.lwes[k]))
						}
						fix.jobs = append(fix.jobs, job)
					}
					// Randomized interleaving: each connection walks its jobs
					// in a seeded shuffled order...
					rng.Shuffle(len(fix.jobs), func(a, b int) { fix.jobs[a], fix.jobs[b] = fix.jobs[b], fix.jobs[a] })
					fleet = append(fleet, fix)
					if c == 0 {
						if err := fix.cl.UploadKey(0, 0); err != nil {
							t.Fatalf("%s key upload: %v", name, err)
						}
					}
				}
			}
			defer func() {
				for _, fix := range fleet {
					_ = fix.cl.Close()
				}
			}()

			// ...after a seeded jitter, so different seeds exercise different
			// arrival orders relative to the running batches.
			jitters := make([][]time.Duration, len(fleet))
			for i := range jitters {
				jitters[i] = make([]time.Duration, jobsPerConn)
				for j := range jitters[i] {
					jitters[i][j] = time.Duration(rng.Intn(5000)) * time.Microsecond
				}
			}

			preAdmitted := met.Counter(obs.CounterJobsAdmitted)
			preServed := met.Counter(obs.CounterJobsServed)
			preBytes := met.Counter(obs.CounterBRKBytesStreamed)
			preBatches := met.Counter(obs.CounterServeBatches)
			preCoalesced := met.Counter(obs.CounterJobsCoalesced)

			var wg sync.WaitGroup
			errs := make(chan error, len(fleet)*jobsPerConn)
			var servedClientSide int64
			var mu sync.Mutex
			for i := range fleet {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					fix := fleet[i]
					for j, job := range fix.jobs {
						time.Sleep(jitters[i][j])
						accs, err := fix.cl.Rotate(job.lwes, 0)
						if err != nil {
							errs <- fmt.Errorf("conn %d job %d: %v", i, j, err)
							return
						}
						if len(accs) != len(job.lwes) {
							errs <- fmt.Errorf("conn %d job %d: %d accs for %d rotations", i, j, len(accs), len(job.lwes))
							return
						}
						for k := range accs {
							if !sameCiphertext(accs[k], job.refs[k]) {
								errs <- fmt.Errorf("conn %d job %d acc %d differs from local BlindRotateOne", i, j, k)
								return
							}
						}
						mu.Lock()
						servedClientSide++
						mu.Unlock()
					}
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if t.Failed() {
				t.FailNow()
			}

			const totalJobs = tenants * connsPer * jobsPerConn
			if servedClientSide != totalJobs {
				t.Fatalf("%d jobs returned, want %d (dropped jobs)", servedClientSide, totalJobs)
			}
			// Server-side exactly-once: the served counter settles to the
			// client-side count (the server credits a job just after the
			// BatchEnd frame the client returns on).
			deadline := time.Now().Add(5 * time.Second)
			for met.Counter(obs.CounterJobsServed)-preServed != totalJobs && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := met.Counter(obs.CounterJobsServed) - preServed; got != totalJobs {
				t.Fatalf("server served counter %d, want %d (dropped or double-executed)", got, totalJobs)
			}
			if got := met.Counter(obs.CounterJobsAdmitted) - preAdmitted; got != totalJobs {
				t.Fatalf("server admitted %d, want %d", got, totalJobs)
			}

			bytes := met.Counter(obs.CounterBRKBytesStreamed) - preBytes
			batches := met.Counter(obs.CounterServeBatches) - preBatches
			coalesced := met.Counter(obs.CounterJobsCoalesced) - preCoalesced
			if bytes > totalJobs*perJobBytes {
				t.Fatalf("coalesced run streamed %d BRK bytes, sequential baseline is %d×%d=%d",
					bytes, totalJobs, perJobBytes, totalJobs*perJobBytes)
			}
			if coalesced == 0 {
				t.Fatalf("no coalescing with %d connections queueing behind the executor", tenants*connsPer)
			}
			if batches >= totalJobs {
				t.Fatalf("%d batches for %d jobs with %d coalesced: coalescing saved nothing", batches, totalJobs, coalesced)
			}
			t.Logf("seed %d: %d jobs in %d batches (%d coalesced), BRK %d vs sequential %d bytes",
				seed, totalJobs, batches, coalesced, bytes, totalJobs*perJobBytes)
		})
	}
}
