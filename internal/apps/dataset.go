// Package apps implements the paper's two evaluation workloads: HELR-style
// logistic-regression training (§VI-F.1) and ResNet-20 inference following
// the Lee et al. schedule (§VI-F.2) — both as hwsim operation schedules that
// regenerate Tables VI and VII, and (for LR) as a fully functional encrypted
// training loop over the scheme-switching bootstrapper.
//
// The MNIST 3-vs-8 subset the paper trains on is substituted by a
// deterministic synthetic two-class Gaussian dataset with the same shape
// (11 982 samples × 196 features); see DESIGN.md for why this preserves the
// experiment (the measurements depend on the operation schedule and on
// bootstrap exactness, not on pixel values).
package apps

import (
	"math"
	"math/rand/v2"
)

// Dataset is a binary-classification dataset with labels in {0, 1}.
type Dataset struct {
	X [][]float64 // [samples][features]
	Y []float64
}

// NewSyntheticDataset generates two Gaussian classes with means ±mu along a
// random direction — linearly separable up to the class overlap controlled
// by mu/sigma, mimicking the difficulty of MNIST 3-vs-8.
func NewSyntheticDataset(samples, features int, mu, sigma float64, seed uint64) *Dataset {
	var key [32]byte
	for i := 0; i < 8; i++ {
		key[i] = byte(seed >> (8 * i))
	}
	rng := rand.New(rand.NewChaCha8(key))
	dir := make([]float64, features)
	norm := 0.0
	for j := range dir {
		dir[j] = rng.NormFloat64()
		norm += dir[j] * dir[j]
	}
	norm = math.Sqrt(norm)
	for j := range dir {
		dir[j] /= norm
	}
	ds := &Dataset{X: make([][]float64, samples), Y: make([]float64, samples)}
	for i := 0; i < samples; i++ {
		cls := float64(i % 2)
		sign := 2*cls - 1
		row := make([]float64, features)
		for j := 0; j < features; j++ {
			row[j] = sign*mu*dir[j] + sigma*rng.NormFloat64()
		}
		ds.X[i] = row
		ds.Y[i] = cls
	}
	return ds
}

// MiniDataset returns a small dataset for the functional encrypted trainer.
func MiniDataset(samples, features int, seed uint64) *Dataset {
	return NewSyntheticDataset(samples, features, 1.5, 0.7, seed)
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// Features returns the feature dimension.
func (d *Dataset) Features() int { return len(d.X[0]) }
