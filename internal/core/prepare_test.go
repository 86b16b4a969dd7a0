package core

import (
	"slices"
	"testing"

	"heap/internal/ckks"
	"heap/internal/obs"
	"heap/internal/ring"
	"heap/internal/rlwe"
)

// TestPrepareSparseWorkerIndependence locks the fanned-out, fused Prepare:
// for the exact and the key-switched mode, every count shape and worker
// counts below, at and above the count, every prepared LWE ciphertext and
// both ct′ components equal the one-worker result and the composition of the
// unfused helpers (Extract → ScaleUp → Apply → ModSwitch) word for word, and
// the LWE key-switch counter reads one per switched ciphertext. Run under
// -race this is the exercise of the fan-out.
func TestPrepareSparseWorkerIndependence(t *testing.T) {
	const logN = 6
	q := ring.GenerateNTTPrimes(30, logN, 3)
	p := ring.GenerateNTTPrimesUp(31, logN, 2)
	params := ckks.MustParameters(logN, q, p, ring.DefaultSigma, 2, float64(uint64(1)<<28), 1<<(logN-1))
	kg := rlwe.NewKeyGenerator(params.Parameters, 60)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	ct := ckks.NewClient(params, sk, 61).EncryptAtLevel(testVector(params.Slots), 1)
	n := params.N()
	twoN := uint64(2 * n)

	for _, nt := range []int{0, 8} {
		cfg := DefaultConfig()
		cfg.NT, cfg.Workers, cfg.ColdStart = nt, 1, true // Prepare needs no blind-rotate key
		bt, err := NewBootstrapper(params, kg, sk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c0, c1 := ct.C0.Limbs[0].Copy(), ct.C1.Limbs[0].Copy()
		params.QBasis.Rings[0].INTT(c0)
		params.QBasis.Rings[0].INTT(c1)
		ms := bt.modSwitchExact(c0, c1)

		for _, count := range []int{1, 2, n / 2, n} {
			unfused := make([]*rlwe.LWECiphertext, count)
			for i := range unfused {
				lwe := rlwe.ExtractLWEFromPolys(ms.alphaC0, ms.alphaC1, twoN, i*(n/count))
				if nt != 0 {
					lwe = rlwe.ModSwitchLWE(bt.lweKSK.Apply(rlwe.ScaleUpLWE(lwe, cfg.ScaleUpBits)), twoN)
				}
				unfused[i] = lwe
			}
			for _, workers := range []int{1, 2, 3, 8} {
				bt.Cfg.Workers = workers
				met := obs.NewMetrics()
				bt.SetRecorder(met)
				prep := bt.PrepareSparse(ct, count)
				bt.SetRecorder(nil)
				if len(prep.LWEs) != count {
					t.Fatalf("n_t=%d count=%d workers=%d: %d LWEs", nt, count, workers, len(prep.LWEs))
				}
				for i, lwe := range prep.LWEs {
					want := unfused[i]
					if lwe == nil || lwe.Q != want.Q || lwe.B != want.B || !slices.Equal(lwe.A, want.A) {
						t.Fatalf("n_t=%d count=%d workers=%d: LWE %d differs from the unfused one-worker chain", nt, count, workers, i)
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
