package core

import "fmt"

// KeyMaterialReport reproduces the §III-C key-size and key-traffic
// accounting: the scheme-switching bootstrap needs n_t blind-rotate keys of
// (h+1)·d × (h+1) degree-(N−1) polynomials each, read once per batched
// bootstrap thanks to the §IV-E scheduling; the conventional CKKS bootstrap
// streams one ~126 MB hybrid key-switching key per KeySwitch operation.
type KeyMaterialReport struct {
	// HEAP side (paper parameters: N=2^13, 7 limbs, d=2, h=1, n_t=500).
	BRKKeyBytes   int64 // one blind-rotate key
	BRKTotalBytes int64 // n_t keys — also the traffic, each key is read once
	// Conventional side (N=2^16, 24 limbs).
	ConvKeyBytes    int64 // one evaluation key
	ConvKeyCount    int   // distinct keys (24 rotation + 1 relinearization)
	ConvKeyReads    int   // total key-streaming operations per bootstrap
	ConvTotalBytes  int64 // footprint
	ConvTrafficByte int64 // traffic = reads × key size
}

// KeyTrafficRatio is the paper's headline "18× less key data" figure.
func (r KeyMaterialReport) KeyTrafficRatio() float64 {
	return float64(r.ConvTrafficByte) / float64(r.BRKTotalBytes)
}

// PaperKeyMaterialReport evaluates the formulas at the paper's parameters.
func PaperKeyMaterialReport() KeyMaterialReport {
	const (
		n     = 1 << 13
		limbs = 7 // six 36-bit limbs + the auxiliary prime p
		d     = 2 // gadget decomposition number
		h     = 1 // GLWE mask
		nt    = 500
		word  = 8 // bytes per stored coefficient
	)
	var r KeyMaterialReport
	// One GGSW key: (h+1)·d × (h+1) polynomials of N coefficients, each
	// with `limbs` residues.
	polys := (h + 1) * d * (h + 1)
	r.BRKKeyBytes = int64(polys * n * limbs * word)
	r.BRKTotalBytes = int64(nt) * r.BRKKeyBytes

	// Conventional bootstrapping at N=2^16 with 24 limbs: a hybrid
	// key-switching key is 2·dnum polynomials over Q·P; the paper reports
	// ~126 MB per key and 25 keys (24 rotations + 1 relinearization).
	const (
		nBig     = 1 << 16
		limbsB   = 24
		specials = 6
		dnumB    = 4
	)
	r.ConvKeyBytes = int64(2 * dnumB * nBig * (limbsB + specials) * word)
	r.ConvKeyCount = 25
	r.ConvTotalBytes = int64(r.ConvKeyCount) * r.ConvKeyBytes
	// The optimized bootstrap [1] performs ~256 key-switch operations
	// (BSGS rotations of CoeffToSlot/SlotToCoeff plus EvalMod
	// relinearizations), each streaming its key from main memory.
	r.ConvKeyReads = 256
	r.ConvTrafficByte = int64(r.ConvKeyReads) * r.ConvKeyBytes
	return r
}

// KeyBytes is the in-memory size of a bootstrapper's key material by kind;
// every field is zero on a ColdStart bootstrapper.
type KeyBytes struct {
	BlindRotate  int64 // the installed blind-rotate key
	LWEKeySwitch int64 // the N→n_t LWE key-switching key (none in exact mode)
	Packing      int64 // the log N packing automorphism keys
}

// String renders the sizes as heapd's startup line prints them.
func (k KeyBytes) String() string {
	return fmt.Sprintf("%d B of keys: blind-rotate %d, LWE key-switch %d, packing %d",
		k.BlindRotate+k.LWEKeySwitch+k.Packing, k.BlindRotate, k.LWEKeySwitch, k.Packing)
}

// KeyBytes measures the key material this bootstrapper holds.
func (bt *Bootstrapper) KeyBytes() KeyBytes {
	var k KeyBytes
	if bt.brk != nil {
		k.BlindRotate = int64(bt.brk.SizeBytes())
	}
	if bt.lweKSK != nil {
		k.LWEKeySwitch = int64(bt.lweKSK.SizeBytes())
	}
	if bt.packKeys != nil {
		k.Packing = int64(bt.packKeys.SizeBytes())
	}
	return k
}

// String renders the report like the §III-C discussion.
func (r KeyMaterialReport) String() string {
	gb := func(b int64) float64 { return float64(b) / (1 << 30) }
	mb := func(b int64) float64 { return float64(b) / (1 << 20) }
	return fmt.Sprintf(
		"HEAP brk: %.2f MB/key × 500 = %.2f GB (read once)\n"+
			"Conventional: %.1f MB/key × %d keys = %.2f GB footprint, %d reads → %.1f GB traffic\n"+
			"key-traffic ratio: %.1f×",
		mb(r.BRKKeyBytes), gb(r.BRKTotalBytes),
		mb(r.ConvKeyBytes), r.ConvKeyCount, gb(r.ConvTotalBytes),
		r.ConvKeyReads, gb(r.ConvTrafficByte), r.KeyTrafficRatio())
}
