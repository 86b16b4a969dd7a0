// Package heap is a from-scratch Go reproduction of "HEAP: A Fully
// Homomorphic Encryption Accelerator with Parallelized Bootstrapping"
// (Agrawal, Chandrakasan, Joshi — ISCA 2024).
//
// It bundles a complete CKKS implementation (including the conventional
// bootstrapping baseline), the TFHE operations HEAP relies on (BlindRotate,
// ExternalProduct, programmable bootstrapping), the paper's scheme-switching
// CKKS bootstrapper with parallel blind rotation, and a calibrated
// cycle-level model of the HEAP FPGA system that regenerates every table in
// the paper's evaluation.
//
// This facade re-exports the high-level entry points; the implementation
// lives in internal/ (ring → rns → rlwe → ckks/tfhe → core → apps, plus the
// ciphertext-free hwsim model). A typical session:
//
//	ctx, _ := heap.NewContext(heap.TestContextConfig())
//	ct := ctx.Encrypt(values)
//	ct = ctx.Eval.MulRelinRescale(ct, ct)    // …until levels run out…
//	ct = ctx.Bootstrap(ct)                   // scheme-switching refresh
//	got := ctx.Decrypt(ct)
package heap

import (
	"heap/internal/ckks"
	"heap/internal/core"
	"heap/internal/hwsim"
	"heap/internal/ring"
	"heap/internal/rlwe"
)

// Re-exported types: the public API surface.
type (
	// Ciphertext is an RLWE/CKKS ciphertext.
	Ciphertext = rlwe.Ciphertext
	// Parameters is a CKKS parameter set.
	Parameters = ckks.Parameters
	// Evaluator performs homomorphic CKKS operations.
	Evaluator = ckks.Evaluator
	// Bootstrapper is the scheme-switching bootstrapper (the paper's core).
	Bootstrapper = core.Bootstrapper
	// BootstrapConfig tunes the scheme-switching bootstrapper.
	BootstrapConfig = core.Config
	// SystemModel is the multi-FPGA hardware model.
	SystemModel = hwsim.SystemModel
)

// ContextConfig describes a full HEAP context.
type ContextConfig struct {
	LogN      int
	LimbBits  int
	Limbs     int // application limbs + q0 + auxiliary prime
	PLimbs    int
	Dnum      int
	LogScale  int
	Slots     int
	Seed      uint64
	Bootstrap core.Config
}

// TestContextConfig is a laptop-scale configuration (N=128) exercising the
// full pipeline in seconds. It uses the exact bootstrap mode (NT = 0): at
// miniature ring degrees the n_t-mode rounding error ε·q0/(2N·Δ) is large
// relative to the scale, whereas the paper-scale parameters enjoy 2^13 of
// head-room (see internal/core.ExpectedSlotErrorBound and DESIGN.md).
func TestContextConfig() ContextConfig {
	bc := core.DefaultConfig()
	bc.NT = 0
	bc.Workers = 4
	return ContextConfig{
		LogN: 7, LimbBits: 30, Limbs: 4, PLimbs: 2, Dnum: 2,
		LogScale: 28, Slots: 64, Seed: 1, Bootstrap: bc,
	}
}

// PaperContextConfig is the paper's §III-C ring as this tree runs it: N=2^13,
// seven 36-bit Q limbs, four 37-bit P limbs, dnum 2 and n_t=500. Functional
// execution at this scale is CPU heavy; it is used by the benchmarks.
func PaperContextConfig() ContextConfig {
	return ContextConfig{
		LogN: 13, LimbBits: 36, Limbs: 7, PLimbs: 4, Dnum: 2,
		LogScale: 35, Slots: 1 << 12, Seed: 1, Bootstrap: core.DefaultConfig(),
	}
}

// Context owns the key material and engines for one party.
type Context struct {
	Params *ckks.Parameters
	Client *ckks.Client
	Eval   *ckks.Evaluator
	Boot   *core.Bootstrapper
	SK     *rlwe.SecretKey
}

// NewContext generates the secret and the bootstrapper's keys from a config,
// promises the evaluation keys, and builds the engines.
func NewContext(cfg ContextConfig) (*Context, error) {
	q := ring.GenerateNTTPrimes(cfg.LimbBits, cfg.LogN, cfg.Limbs)
	p := ring.GenerateNTTPrimesUp(cfg.LimbBits+1, cfg.LogN, cfg.PLimbs)
	params, err := ckks.NewParameters(cfg.LogN, q, p, ring.DefaultSigma, cfg.Dnum,
		float64(uint64(1)<<cfg.LogScale), cfg.Slots)
	if err != nil {
		return nil, err
	}
	kg := rlwe.NewKeyGenerator(params.Parameters, cfg.Seed)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	client := ckks.NewClient(params, sk, cfg.Seed+1)
	boot, err := core.NewBootstrapper(params, kg, sk, cfg.Bootstrap)
	if err != nil {
		return nil, err
	}
	rotations := make([]int, 0, 2*cfg.LogN)
	for r := 1; r < cfg.Slots; r <<= 1 {
		rotations = append(rotations, r, -r)
	}
	// The evaluation keys are promised, not made: each is generated when an
	// operation first needs it (ckks.EvaluationKeySet), so the context holds
	// only the keys its computation uses.
	keys := ckks.NewEvaluationKeySet(params, kg, sk, rotations, true)
	ev := ckks.NewEvaluator(params, keys, nil)
	// The context's one answer to "how many cores may I use" covers the
	// operations between bootstraps too.
	ev.KS.SetWorkers(cfg.Bootstrap.Workers)
	return &Context{Params: params, Client: client, Eval: ev, Boot: boot, SK: sk}, nil
}

// Encrypt encrypts a complex vector at the highest application level.
func (c *Context) Encrypt(values []complex128) *Ciphertext {
	return c.Client.EncryptAtLevel(values, c.Boot.AppMaxLevel())
}

// Decrypt decodes a ciphertext's slot values.
func (c *Context) Decrypt(ct *Ciphertext) []complex128 { return c.Client.Decrypt(ct) }

// Bootstrap refreshes a level-1 ciphertext with the scheme-switching
// bootstrapper; higher-level inputs are dropped to level 1 first.
func (c *Context) Bootstrap(ct *Ciphertext) *Ciphertext {
	if ct.Level() > 1 {
		ct = c.Eval.DropLevels(ct, ct.Level()-1)
	}
	return c.Boot.Bootstrap(ct)
}

// NewSystemModel returns the multi-FPGA hardware model at the paper's
// configuration.
func NewSystemModel(nFPGAs int) *SystemModel {
	return hwsim.NewSystem(hwsim.AlveoU280(), hwsim.PaperParams(), nFPGAs)
}
