package core

import (
	"slices"
	"testing"

	"heap/internal/ckks"
	"heap/internal/obs"
	"heap/internal/ring"
	"heap/internal/rlwe"
)

// prepareFixture is a ring wide enough for the paper's n_t = 500 (n_t must
// stay below N/2) and for 256 extractions, with one encrypted input and its
// exact modulus switch.
func prepareFixture(t *testing.T) (*ckks.Parameters, *rlwe.KeyGenerator, *rlwe.SecretKey, *rlwe.Ciphertext) {
	t.Helper()
	const logN = 10
	q := ring.GenerateNTTPrimes(30, logN, 3)
	p := ring.GenerateNTTPrimesUp(31, logN, 2)
	params := ckks.MustParameters(logN, q, p, ring.DefaultSigma, 2, float64(uint64(1)<<28), 1<<(logN-1))
	kg := rlwe.NewKeyGenerator(params.Parameters, 60)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	ct := ckks.NewClient(params, sk, 61).EncryptAtLevel(testVector(params.Slots), 1)
	return params, kg, sk, ct
}

// coldWithLWEKeySwitchKey builds a key-cold bootstrapper and gives it the one
// key an n_t-mode Prepare reads: the LWE secret drawn from kg where a warm
// NewBootstrapper draws it, and the N→n_t key-switching key from
// NewBootstrapper's own sampler seed. The blind-rotate and packing keys a
// warm engine would add are never read by Prepare.
func coldWithLWEKeySwitchKey(t *testing.T, params *ckks.Parameters, kg *rlwe.KeyGenerator, sk *rlwe.SecretKey, cfg Config) *Bootstrapper {
	t.Helper()
	cfg.ColdStart = true
	bt, err := NewBootstrapper(params, nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NT != 0 {
		bt.lweKSK = bt.genLWEKeySwitchKey(sk, kg.GenLWESecretKey(cfg.NT, rlwe.SecretBinary))
	}
	return bt
}

// TestPrepareSparseWorkerIndependence locks the fanned-out, key-major
// Prepare: for the exact mode and the key-switched mode at n_t = 8, 16 and
// the paper's 500 (a key and accumulators far wider than L1), for counts
// whose chunks are a partial vector group (1, 2), one group (4), two (8) and
// many (256), at one, two and three workers (uneven chunks), every prepared
// LWE ciphertext equals the composition of the unfused helpers
// (Extract → ScaleUp → Apply → ModSwitch) word for word, both ct′
// components equal the modulus switch's, and the LWE key-switch counter
// reads one per switched ciphertext. Run under -race this is the exercise of
// the fan-out.
func TestPrepareSparseWorkerIndependence(t *testing.T) {
	params, kg, sk, ct := prepareFixture(t)
	n := params.N()
	twoN := uint64(2 * n)
	const maxCount = 256

	for _, nt := range []int{0, 8, 16, 500} {
		cfg := DefaultConfig()
		cfg.NT, cfg.Workers = nt, 1
		bt := coldWithLWEKeySwitchKey(t, params, kg, sk, cfg)
		c0, c1 := ct.C0.Limbs[0].Copy(), ct.C1.Limbs[0].Copy()
		params.QBasis.Rings[0].INTT(c0)
		params.QBasis.Rings[0].INTT(c1)
		ms := bt.modSwitchExact(c0, c1)

		// Every count below extracts a subset of the maxCount-stride
		// coefficients: switch those once through the unfused chain.
		unfused := make(map[int]*rlwe.LWECiphertext, maxCount)
		for i := 0; i < n; i += n / maxCount {
			lwe := rlwe.ExtractLWEFromPolys(ms.alphaC0, ms.alphaC1, twoN, i)
			if nt != 0 {
				lwe = rlwe.ModSwitchLWE(bt.lweKSK.Apply(rlwe.ScaleUpLWE(lwe, scaleUpBits)), twoN)
			}
			unfused[i] = lwe
		}
		for _, count := range []int{1, 2, 4, 8, maxCount} {
			for _, workers := range []int{1, 2, 3} {
				bt.Cfg.Workers = workers
				met := obs.NewMetrics()
				bt.SetRecorder(met)
				prep := bt.PrepareSparse(ct, count)
				bt.SetRecorder(nil)
				if len(prep.LWEs) != count {
					t.Fatalf("n_t=%d count=%d workers=%d: %d LWEs", nt, count, workers, len(prep.LWEs))
				}
				for i, lwe := range prep.LWEs {
					want := unfused[i*(n/count)]
					if lwe == nil || lwe.Q != want.Q || lwe.B != want.B || !slices.Equal(lwe.A, want.A) {
						t.Fatalf("n_t=%d count=%d workers=%d: LWE %d differs from the unfused chain", nt, count, workers, i)
					}
				}
				if !slices.Equal(prep.rC0, ms.rC0) || !slices.Equal(prep.rC1, ms.rC1) {
					t.Fatalf("n_t=%d count=%d workers=%d: ct′ differs", nt, count, workers)
				}
				wantSwitched := uint64(count)
				if nt == 0 {
					wantSwitched = 0
				}
				if got := met.Counter(obs.CounterLWEKeySwitch); got != wantSwitched {
					t.Errorf("n_t=%d count=%d workers=%d: lwe_key_switches = %d, want %d", nt, count, workers, got, wantSwitched)
				}
				if st := met.Snapshot().Pipeline["Extract"]; st.Count != 1 {
					t.Errorf("n_t=%d count=%d workers=%d: %d Extract spans, want one around the fan-out", nt, count, workers, st.Count)
				}
			}
		}
	}
}

// TestPrepareSparseAllocationBound locks the heap traffic of a key-switched
// Prepare to a count-independent budget: the modulus switch's buffers, the
// index and result slices, and per worker chunk its goroutine, its sums and
// one backing array each for the output structs and their masks — not two
// objects per LWE ciphertext, nor the N-word temporaries of the unfused
// chain.
func TestPrepareSparseAllocationBound(t *testing.T) {
	params, kg, sk, ct := prepareFixture(t)
	cfg := DefaultConfig()
	cfg.NT, cfg.Workers = 8, 2
	bt := coldWithLWEKeySwitchKey(t, params, kg, sk, cfg)
	for _, count := range []int{8, 256} {
		const budget = 12 + 6*2 // fixed + per-chunk objects at two workers
		if avg := testing.AllocsPerRun(5, func() { bt.PrepareSparse(ct, count) }); avg > budget {
			t.Errorf("count=%d: PrepareSparse allocates %.1f objects, want at most %d", count, avg, budget)
		}
	}
}
