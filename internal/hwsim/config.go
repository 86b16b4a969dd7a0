// Package hwsim is a calibrated cycle-level performance and resource model
// of the HEAP FPGA microarchitecture (§IV–§V of the paper). It never touches
// ciphertexts: given the paper's parameter set and the Alveo U280 resource
// budget it derives cycle counts for every primitive from the datapath
// descriptions (512 seven-cycle modular units, the Cooley-Tukey NTT
// schedule, the batched BlindRotate pipeline, HBM streaming and the 100G
// inter-FPGA link), calibrates a small number of per-operation efficiency
// factors against the paper's reported single-FPGA latencies (Tables III–IV),
// and then *predicts* the system-level results (Tables V–VIII).
//
// EXPERIMENTS.md records, for every table, the paper's number, this model's
// number, and where first-principles estimates disagree with the paper.
package hwsim

// FPGAConfig describes one accelerator node (defaults: Alveo U280, §IV/§V).
type FPGAConfig struct {
	FreqMHz       float64 // kernel clock (paper: 300 MHz)
	MemFreqMHz    float64 // HBM-side clock (450 MHz)
	ModUnits      int     // modular arithmetic units (512)
	ModOpLatency  int     // cycles per scalar modular op (7)
	HBMBytesPerGB float64 // HBM bandwidth, GB/s (460)
	AXIPorts      int     // 256-bit AXI ports (32)
	EthernetGbps  float64 // CMAC link (100)
	CyclesPerCtTx int     // cycles to transmit one RLWE ciphertext (458)

	// Resource budget.
	LUTs, FFs, DSPs, BRAMs, URAMs int
}

// AlveoU280 returns the paper's FPGA configuration.
func AlveoU280() FPGAConfig {
	return FPGAConfig{
		FreqMHz:       300,
		MemFreqMHz:    450,
		ModUnits:      512,
		ModOpLatency:  7,
		HBMBytesPerGB: 460,
		AXIPorts:      32,
		EthernetGbps:  100,
		CyclesPerCtTx: 458,
		LUTs:          1304_000,
		FFs:           2607_000,
		DSPs:          9024,
		BRAMs:         4032,
		URAMs:         962,
	}
}

// ParamSet is the crypto parameter set the model evaluates (§III-C).
type ParamSet struct {
	LogN     int // ring degree exponent
	Limbs    int // RNS limbs L of a ciphertext
	LimbBits int // bits per limb (36)
	AuxLimbs int // auxiliary primes during bootstrapping (the paper's p)
	NT       int // LWE dimension n_t
	D        int // gadget decomposition number d
	H        int // GLWE mask h
	Slots    int // packed plaintext slots n
}

// PaperParams is the HEAP parameter set: N=2^13, logQ=216 (six 36-bit
// limbs), one auxiliary prime, n_t=500, d=2, h=1, fully packed (n=4096).
func PaperParams() ParamSet {
	return ParamSet{LogN: 13, Limbs: 6, LimbBits: 36, AuxLimbs: 1, NT: 500, D: 2, H: 1, Slots: 1 << 12}
}

// N returns the ring degree.
func (p ParamSet) N() int { return 1 << p.LogN }

// CtBytes returns the size of one RLWE ciphertext (2 polynomials, §III-C:
// 2·logQ·N bits).
func (p ParamSet) CtBytes() int64 {
	return int64(2) * int64(p.Limbs) * int64(p.LimbBits) * int64(p.N()) / 8
}

// LWECtBytes returns the size of one LWE ciphertext ((n_t+1)·logq bits,
// §III-C: ~2.3 KB for n_t=500, logq=36).
func (p ParamSet) LWECtBytes() int64 {
	return int64(p.NT+1) * int64(p.LimbBits) / 8
}

// BRKKeyBytes returns the size of one blind-rotate key: a
// (h+1)·d × (h+1) matrix of degree-(N−1) polynomials over Q·p (§III-C:
// ~3.52 MB with 64-bit storage words).
func (p ParamSet) BRKKeyBytes() int64 {
	polys := (p.H + 1) * p.D * (p.H + 1)
	return int64(polys) * int64(p.N()) * int64(p.Limbs+p.AuxLimbs) * 8
}

// BRKTotalBytes is the full blind-rotate key material (n_t keys): the
// paper's 1.76 GB.
func (p ParamSet) BRKTotalBytes() int64 { return int64(p.NT) * p.BRKKeyBytes() }

// BRKWireBlobBytes is the size of the serialized blind-rotate key blob the
// cluster streams to a key-cold node: a 24-byte blob header plus, per
// LWE key index, one record. A binary key's record is the RGSW(s_i)
// ciphertext alone — BRKKeyBytes of coefficient data (the (h+1)d × (h+1)
// matrix, shipped as two gadget ciphertexts) plus two 32-byte gadget
// headers — so the paper's binary blob is BRKTotalBytes plus headers. A
// ternary key's record carries RGSW(s_i⁺) and RGSW(s_i⁻), twice that. The
// software serializer's tfhe.BRKBlobBytes must agree exactly for a mirrored
// parameter set — locked by TestBRKWireBlobMatchesSerializer.
func (p ParamSet) BRKWireBlobBytes(binary bool) int64 {
	rgsws := int64(2)
	if binary {
		rgsws = 1
	}
	return 24 + int64(p.NT)*rgsws*(p.BRKKeyBytes()+64)
}

// KeyTraffic returns the BRK bytes one node pulls from memory to
// blind-rotate a batch of ciphertexts under the two software schedules:
// ciphertext-major (the full key set streamed once per ciphertext — the
// pre-batching path) and key-major batched (once per tile of accumulators —
// the URAM-residency schedule BlindRotateBatched assumes). tile is the tile
// the engine actually runs — min(Tile, ⌈batch/workers⌉) once a batch is fanned
// over several workers; tile ≤ 0 is treated as 1.
func (p ParamSet) KeyTraffic(batch, tile int) (perCtBytes, batchedBytes int64) {
	if batch <= 0 {
		return 0, 0
	}
	if tile <= 0 {
		tile = 1
	}
	tiles := int64((batch + tile - 1) / tile)
	return int64(batch) * p.BRKTotalBytes(), tiles * p.BRKTotalBytes()
}

// KeyReuse is the model's key-reuse factor for a batch at the given tile:
// per-ciphertext traffic over batched traffic. The software engine's
// brk_bytes_streamed counter ratio must match this exactly for dense masks —
// locked by TestKeyReuseMatchesSoftwareCounters.
func (p ParamSet) KeyReuse(batch, tile int) float64 {
	perCt, batched := p.KeyTraffic(batch, tile)
	if batched == 0 {
		return 0
	}
	return float64(perCt) / float64(batched)
}

// ResourceUsage models Table II: utilization of the single-FPGA design.
type ResourceUsage struct {
	LUTs, FFs, DSPs, BRAMs, URAMs int
}

// ResourceModel derives the Table II utilization from the architecture:
//   - DSPs: each 36-bit modular unit composes 18-bit DSP multipliers and
//     32-bit DSP adders into a 12-DSP pipeline → 512 × 12 = 6144.
//   - URAM: one ciphertext limb-pair (a,b interleaved, Fig. 2) fills two
//     4096×72b blocks → 12 blocks per ciphertext, 80 ciphertexts → 960.
//   - BRAM: 18-bit halves, two blocks per coefficient column (Fig. 3) →
//     192 blocks per ciphertext, 20 ciphertexts → 3840.
//   - LUT/FF: per-unit soft-logic estimates (functional units take 42% of
//     utilized LUTs, §VI-A) — calibrated to the reported totals.
func ResourceModel(cfg FPGAConfig, p ParamSet) ResourceUsage {
	dspPerUnit := 12
	uramPerCt := 2 * p.Limbs                    // Fig. 2: 12 for L=6
	bramPerCt := 2 * p.Limbs * p.N() * 2 / 1024 // Fig. 3: 192 for N=2^13, L=6
	urams := cfg.URAMs / uramPerCt * uramPerCt  // 80 cts → 960
	// One ciphertext's worth of BRAM stays with the external-product MAC
	// units as partial-accumulation buffers (§IV-A), leaving 20 ciphertexts.
	brams := (cfg.BRAMs - bramPerCt) / bramPerCt * bramPerCt
	lutPerUnit := 830    // functional units ≈ 42% of 1012K
	lutOther := 587_000  // RF/FIFO/control/addr-gen logic
	ffPerUnit := 1588    //
	ffOther := 1_123_000 //
	return ResourceUsage{
		LUTs:  cfg.ModUnits*lutPerUnit + lutOther,
		FFs:   cfg.ModUnits*ffPerUnit + ffOther,
		DSPs:  cfg.ModUnits * dspPerUnit,
		BRAMs: brams,
		URAMs: urams,
	}
}

// MemoryPlan reports the Fig. 2/3 on-chip memory organization.
type MemoryPlan struct {
	URAMPerCt, CtsInURAM int
	BRAMPerCt, CtsInBRAM int
	OnChipMB             float64
}

// PlanMemory computes the URAM/BRAM ciphertext capacity.
func PlanMemory(cfg FPGAConfig, p ParamSet) MemoryPlan {
	uramPerCt := 2 * p.Limbs
	bramPerCt := 2 * p.Limbs * p.N() * 2 / 1024
	mp := MemoryPlan{
		URAMPerCt: uramPerCt,
		CtsInURAM: cfg.URAMs / uramPerCt,
		BRAMPerCt: bramPerCt,
		CtsInBRAM: (cfg.BRAMs - bramPerCt) / bramPerCt,
	}
	// Data capacity: URAM addresses hold two full 36-bit coefficients
	// (72 of 72 bits used, Fig. 2); BRAM addresses hold one 18-bit half
	// coefficient (Fig. 3) — §VI-B's 43 MB of on-chip memory.
	mp.OnChipMB = (float64(mp.CtsInURAM*uramPerCt)*4096*72 +
		float64((mp.CtsInBRAM+1)*bramPerCt)*1024*18) / 8 / (1 << 20)
	return mp
}
