package apps

import (
	"math"
	"testing"

	"heap/internal/ckks"
	"heap/internal/core"
	"heap/internal/hwsim"
	"heap/internal/ring"
	"heap/internal/rlwe"
)

// paperShapeDataset returns the 11 982 × 196 dataset matching the paper's
// MNIST subset (§VI-F.1).
func paperShapeDataset(seed uint64) *Dataset {
	return NewSyntheticDataset(11982, 196, 1.9, 1.0, seed)
}

func TestSyntheticDatasetShapeAndBalance(t *testing.T) {
	ds := paperShapeDataset(1)
	if ds.Len() != 11982 || ds.Features() != 196 {
		t.Fatalf("dataset shape %d×%d, want 11982×196", ds.Len(), ds.Features())
	}
	ones := 0
	for _, y := range ds.Y {
		if y == 1 {
			ones++
		} else if y != 0 {
			t.Fatalf("label %v not in {0,1}", y)
		}
	}
	if ones < ds.Len()*2/5 || ones > ds.Len()*3/5 {
		t.Errorf("class balance off: %d/%d", ones, ds.Len())
	}
	// Determinism.
	ds2 := paperShapeDataset(1)
	if ds2.X[0][0] != ds.X[0][0] {
		t.Error("same seed should reproduce the dataset")
	}
}

// TestPlainLRReachesPaperAccuracy reproduces the §VI-F.3 accuracy regime:
// 30 iterations, one per paper protocol, on the 11982×196 dataset.
func TestPlainLRReachesPaperAccuracy(t *testing.T) {
	ds := paperShapeDataset(2)
	w := TrainLogisticPlain(ds, 30, 1.0, false)
	if acc := Accuracy(w, ds); acc < 0.95 {
		t.Errorf("plaintext LR accuracy %.3f below the ~97%% regime", acc)
	}
	// The degree-1 approximate sigmoid the encrypted trainer uses must stay
	// in the same accuracy regime.
	wApprox := TrainLogisticPlain(ds, 30, 1.0, true)
	if acc := Accuracy(wApprox, ds); acc < 0.93 {
		t.Errorf("approx-sigmoid LR accuracy %.3f degraded too far", acc)
	}
}

func encryptedLRContext(t *testing.T, slots int) (*EncryptedLR, *Dataset) {
	t.Helper()
	logN := 8
	q := ring.GenerateNTTPrimes(30, logN, 6) // q0 + 4 app limbs + aux
	p := ring.GenerateNTTPrimesUp(31, logN, 2)
	params := ckks.MustParameters(logN, q, p, ring.DefaultSigma, 3, float64(uint64(1)<<28), slots)
	kg := rlwe.NewKeyGenerator(params.Parameters, 70)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	cl := ckks.NewClient(params, sk, 71)

	rotations := make([]int, 0)
	for r := 1; r < slots; r <<= 1 {
		rotations = append(rotations, r)
	}
	keys := ckks.GenEvaluationKeySet(params, kg, sk, rotations, false)
	ev := ckks.NewEvaluator(params, keys, nil)

	cfg := core.DefaultConfig()
	cfg.NT = 24
	cfg.Workers = 4
	bt, err := core.NewBootstrapper(params, kg, sk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	trainer := &EncryptedLR{Params: params, Client: cl, Ev: ev, Boot: bt, Gamma: 1.0}
	ds := MiniDataset(slots, 4, 3)
	return trainer, ds
}

// TestEncryptedLRMatchesPlaintextOneIteration checks the homomorphic
// gradient computation against the plaintext reference (no bootstrap).
func TestEncryptedLRMatchesPlaintextOneIteration(t *testing.T) {
	trainer, ds := encryptedLRContext(t, 128)
	wEnc := trainer.Train(ds, 1)
	wPlain := TrainLogisticPlain(ds, 1, 1.0, true)
	for j := range wPlain {
		if d := math.Abs(wEnc[j] - wPlain[j]); d > 0.02 {
			t.Errorf("weight %d: encrypted %.4f vs plaintext %.4f", j, wEnc[j], wPlain[j])
		}
	}
}

// TestEncryptedLRTrainingWithBootstrap runs two full iterations with a
// scheme-switching bootstrap between them — the end-to-end Table VI code
// path — and checks the model still classifies.
func TestEncryptedLRTrainingWithBootstrap(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrapped training is slow")
	}
	// Exact bootstrap mode at N=128: the n_t-mode rounding noise at toy
	// ring degrees can push weights past the wrap-around bound.
	logN := 7
	slots := 64
	q := ring.GenerateNTTPrimes(30, logN, 6)
	p := ring.GenerateNTTPrimesUp(31, logN, 2)
	params := ckks.MustParameters(logN, q, p, ring.DefaultSigma, 3, float64(uint64(1)<<28), slots)
	kg := rlwe.NewKeyGenerator(params.Parameters, 70)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	cl := ckks.NewClient(params, sk, 71)
	rotations := make([]int, 0)
	for r := 1; r < slots; r <<= 1 {
		rotations = append(rotations, r)
	}
	keys := ckks.GenEvaluationKeySet(params, kg, sk, rotations, false)
	ev := ckks.NewEvaluator(params, keys, nil)
	cfg := core.DefaultConfig()
	cfg.NT = 0
	cfg.Workers = 4
	bt, err := core.NewBootstrapper(params, kg, sk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	trainer := &EncryptedLR{Params: params, Client: cl, Ev: ev, Boot: bt, Gamma: 1.0}
	ds := MiniDataset(slots, 4, 3)
	w := trainer.Train(ds, 2)
	acc := Accuracy(w, ds)
	wPlain := TrainLogisticPlain(ds, 2, 1.0, true)
	accPlain := Accuracy(wPlain, ds)
	t.Logf("encrypted accuracy %.3f, plaintext %.3f", acc, accPlain)
	if acc < accPlain-0.1 {
		t.Errorf("encrypted training accuracy %.3f collapsed vs plaintext %.3f", acc, accPlain)
	}
}

func TestLRScheduleMatchesTableVI(t *testing.T) {
	s := hwsim.NewSystem(hwsim.AlveoU280(), hwsim.PaperParams(), 8)
	w := LRSchedule()
	sec := s.Time(w) / 1e3
	// Paper: 0.007 s per iteration on HEAP.
	if sec < 0.005 || sec > 0.009 {
		t.Errorf("modeled LR iteration %.4f s, paper reports 0.007 s", sec)
	}
	compute, boot := s.ComputeToBootRatio(w)
	// §VI-F.1: bootstrapping drops to ~21% of the iteration.
	if boot < 0.12 || boot > 0.30 {
		t.Errorf("boot fraction %.2f, paper reports ~0.21", boot)
	}
	if compute+boot < 0.999 || compute+boot > 1.001 {
		t.Error("fractions must sum to 1")
	}
}

func TestResNetScheduleMatchesTableVII(t *testing.T) {
	s := hwsim.NewSystem(hwsim.AlveoU280(), hwsim.PaperParams(), 8)
	w := ResNetSchedule()
	sec := s.Time(w) / 1e3
	// Paper: 0.267 s per inference on HEAP.
	if sec < 0.21 || sec > 0.33 {
		t.Errorf("modeled ResNet-20 inference %.4f s, paper reports 0.267 s", sec)
	}
	_, boot := s.ComputeToBootRatio(w)
	// §VI-F.2: bootstrapping is ~44% of HEAP's inference time.
	if boot < 0.35 || boot > 0.55 {
		t.Errorf("boot fraction %.2f, paper reports ~0.44", boot)
	}
	if len(ResNet20Layers()) != 20 {
		t.Errorf("ResNet-20 should have 20 stages, got %d", len(ResNet20Layers()))
	}
}
