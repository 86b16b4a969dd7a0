//go:build amd64 && !purego

// Coefficient-sweep kernels: the FMA Hadamard product/MAC, the FMA
// fixed-operand multiply (rescale), the FMA dot products (the key-switch digit
// MAC and the basis conversion), the FMA difference-times-constant (the
// ModDown's last step), the integer add/sub/negated-sum sweeps, and the
// wrap-around digit MAC of the LWE key switch (which keeps its own register
// map, below). Each processes len(out)/4 whole 4-lane groups (the dot
// products len(out)/16 whole blocks of four groups) — the Go wrappers truncate
// to a multiple of that width and run the scalar loop on the tail — and every
// kernel reads a full lane group before writing it, so exact aliasing
// (out == a or out == b) behaves like the scalar loops. The FMA kernels take
// words below 2^50 (canonical residues, for the products) and write canonical
// words; fma_amd64.h has the arithmetic.
//
// Register conventions: DI out, SI a, DX b (when present), CX lane-group
// countdown; Y9 zero, Y10 1/q, Y12/Y11 the fixed operand w and w/q, plus the
// pinned Y13-Y15 of fma_amd64.h.

#include "textflag.h"
#include "fma_amd64.h"

// SWEEP_PROLOGUE(QARG): out/a/b pointers, the group count, the FMA constants
// and a zero in Y9. Jumps to done when there is no whole group.
#define SWEEP_PROLOGUE(QARG, done) \
	MOVQ out_base+0(FP), DI; \
	MOVQ a_base+24(FP), SI; \
	MOVQ out_len+8(FP), CX; \
	SHRQ $2, CX; \
	JZ   done; \
	FMA_CONSTS(QARG); \
	VXORPD Y9, Y9, Y9

// func mulCoeffsFMA(out, a, b []uint64, q, qinv float64)
//
// out[i] = a[i]·b[i] mod q for canonical operands: h = a·b rounds, l is its
// exact error, k = round(h/q), and h − k·q + l is the product's residue in
// (−q, q).
TEXT ·mulCoeffsFMA(SB), NOSPLIT, $0-88
	SWEEP_PROLOGUE(q+72(FP), mulcDone)
	MOVQ b_base+48(FP), DX
	VBROADCASTSD qinv+80(FP), Y10

mulcLoop:
	VMOVDQU (SI), Y0
	VMOVDQU (DX), Y1
	TOF(Y0)
	TOF(Y1)
	VMULPD       Y1, Y0, Y3
	VFMSUB213PD  Y3, Y1, Y0
	REDUCE(Y3, Y5)
	VADDPD       Y0, Y3, Y3
	CANON(Y3, Y4)
	VMOVDQU Y3, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  mulcLoop

mulcDone:
	VZEROUPPER
	RET

// func mulCoeffsAndAddFMA(out, a, b []uint64, q, qinv float64)
//
// out[i] = (out[i] + a[i]·b[i]) mod q: the quotient is estimated from h + out,
// so one correction makes the sum canonical.
TEXT ·mulCoeffsAndAddFMA(SB), NOSPLIT, $0-88
	SWEEP_PROLOGUE(q+72(FP), maccDone)
	MOVQ b_base+48(FP), DX
	VBROADCASTSD qinv+80(FP), Y10

maccLoop:
	VMOVDQU (SI), Y0
	VMOVDQU (DX), Y1
	VMOVDQU (DI), Y2
	TOF(Y0)
	TOF(Y1)
	TOF(Y2)
	VMULPD       Y1, Y0, Y3
	VFMSUB213PD  Y3, Y1, Y0
	VADDPD       Y2, Y3, Y4
	VMOVAPD      Y14, Y5
	VFMADD231PD  Y10, Y4, Y5
	VSUBPD       Y14, Y5, Y5
	VFNMADD231PD Y15, Y5, Y3
	VADDPD       Y0, Y3, Y3
	VADDPD       Y2, Y3, Y3
	CANON(Y3, Y4)
	VMOVDQU Y3, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  maccLoop

maccDone:
	VZEROUPPER
	RET

// func mulScalarFMA(out, a []uint64, w, wq, q float64)
//
// out[i] = a[i]·w mod q for a fixed operand w < q, wq = w/q.
TEXT ·mulScalarFMA(SB), NOSPLIT, $0-72
	SWEEP_PROLOGUE(q+64(FP), mulsDone)
	VBROADCASTSD w+48(FP), Y12
	VBROADCASTSD wq+56(FP), Y11

mulsLoop:
	VMOVDQU (SI), Y0
	TOF(Y0)
	MULW(Y0, Y12, Y11, Y3, Y4)
	CANON(Y3, Y4)
	VMOVDQU Y3, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  mulsLoop

mulsDone:
	VZEROUPPER
	RET

// The dot-product kernels read their k operand pairs through the slice
// headers of a and b ([]Poly: a header is 24 bytes, its data pointer first)
// at a byte offset R11 that walks out in blocks of four lane groups. The four
// groups' sums (Y6, Y7, Y8, Y2) are independent chains, so one group's
// latency hides behind the others' arithmetic (measured: a block of four
// groups runs a 4-term dot ≈ 1.5× faster than a block of two, and a block of
// one no faster than the separate passes); the Go wrappers hand them whole
// blocks of sixteen words. Each term is reduced on its own,
// |term| ≤ q/2 + q·2^-4, the k terms are summed exactly and each sum is
// reduced and canonicalised once; the wrappers hand them at most maxDotTerms
// terms, which keeps a sum below 2^51 (DESIGN.md "Vectorized kernels").
// Registers: DI out, R8/R9 the term tables, R10 k, R12 the term countdown,
// SI/DX the term walk, AX/BX the term's data pointers, R13 the accumulate
// flag, CX the block countdown; Y0/Y1/Y3/Y4/Y5 the temporaries every group
// reuses (renaming keeps the groups apart).

// DOT_BLOCK_START(start): zero the four sums, or load out's four groups into
// them when the accumulate flag is set.
#define DOT_BLOCK_START(start) \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7; \
	VXORPD Y8, Y8, Y8; \
	VXORPD Y2, Y2, Y2; \
	TESTQ  R13, R13; \
	JZ     start; \
	VMOVDQU (DI)(R11*1), Y6; \
	VMOVDQU 32(DI)(R11*1), Y7; \
	VMOVDQU 64(DI)(R11*1), Y8; \
	VMOVDQU 96(DI)(R11*1), Y2; \
	TOF(Y6); \
	TOF(Y7); \
	TOF(Y8); \
	TOF(Y2)

// DOT_FINISH(SUM, OFF): reduce a sum to its canonical words and store them.
#define DOT_FINISH(SUM, OFF) \
	REDUCE(SUM, Y5); \
	CANON(SUM, Y4); \
	VMOVDQU SUM, OFF(DI)(R11*1)

// DOT_BLOCK_END: finish the four sums, step to the next block.
#define DOT_BLOCK_END \
	DOT_FINISH(Y6, 0); \
	DOT_FINISH(Y7, 32); \
	DOT_FINISH(Y8, 64); \
	DOT_FINISH(Y2, 96); \
	ADDQ $128, R11

// DOTC_TERM(OFF, SUM): SUM += the reduced product of the a and b words at
// OFF in the block, as in mulCoeffsFMA: h − round(h/q)·q + l.
#define DOTC_TERM(OFF, SUM) \
	VMOVDQU OFF(AX)(R11*1), Y0; \
	VMOVDQU OFF(BX)(R11*1), Y1; \
	TOF(Y0); \
	TOF(Y1); \
	VMULPD      Y1, Y0, Y3; \
	VFMSUB213PD Y3, Y1, Y0; \
	REDUCE(Y3, Y5); \
	VADDPD      Y0, Y3, Y3; \
	VADDPD      Y3, SUM, SUM

// DOTF_TERM(OFF, SUM): SUM += MULW of the a words at OFF in the block by the
// term's operand in Y12 (w) and Y11 (w/q).
#define DOTF_TERM(OFF, SUM) \
	VMOVDQU OFF(AX)(R11*1), Y0; \
	TOF(Y0); \
	MULW(Y0, Y12, Y11, Y3, Y4); \
	VADDPD Y3, SUM, SUM

// func dotCoeffsFMA(out []uint64, a, b []Poly, add int, q, qinv float64)
//
// out[i] = Σ_t a[t][i]·b[t][i] mod q, plus out[i] when add is non-zero, for
// canonical operands.
TEXT ·dotCoeffsFMA(SB), NOSPLIT, $0-96
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	SHRQ $4, CX
	JZ   dotcDone
	MOVQ a_base+24(FP), R8
	MOVQ a_len+32(FP), R10
	MOVQ b_base+48(FP), R9
	MOVQ add+72(FP), R13
	FMA_CONSTS(q+80(FP))
	VBROADCASTSD qinv+88(FP), Y10
	VXORPD Y9, Y9, Y9
	XORQ R11, R11

dotcBlock:
	DOT_BLOCK_START(dotcStart)

dotcStart:
	MOVQ R8, SI
	MOVQ R9, DX
	MOVQ R10, R12

dotcTerm:
	MOVQ (SI), AX
	MOVQ (DX), BX
	DOTC_TERM(0, Y6)
	DOTC_TERM(32, Y7)
	DOTC_TERM(64, Y8)
	DOTC_TERM(96, Y2)
	ADDQ $24, SI
	ADDQ $24, DX
	DECQ R12
	JNZ  dotcTerm

	DOT_BLOCK_END
	DECQ CX
	JNZ  dotcBlock

dotcDone:
	VZEROUPPER
	RET

// func dotFixedFMA(out []uint64, a []Poly, w []float64, add int, q, qinv float64)
//
// out[i] = Σ_t a[t][i]·w_t mod q, plus out[i] when add is non-zero, for fixed
// operands w_t < q, held in w as the pairs (w_t, w_t/q), and a[t][i] < 2^50
// (residues of other primes).
TEXT ·dotFixedFMA(SB), NOSPLIT, $0-96
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	SHRQ $4, CX
	JZ   dotfDone
	MOVQ a_base+24(FP), R8
	MOVQ a_len+32(FP), R10
	MOVQ w_base+48(FP), R9
	MOVQ add+72(FP), R13
	FMA_CONSTS(q+80(FP))
	VBROADCASTSD qinv+88(FP), Y10
	VXORPD Y9, Y9, Y9
	XORQ R11, R11

dotfBlock:
	DOT_BLOCK_START(dotfStart)

dotfStart:
	MOVQ R8, SI
	MOVQ R9, DX
	MOVQ R10, R12

dotfTerm:
	MOVQ (SI), AX
	VBROADCASTSD (DX), Y12
	VBROADCASTSD 8(DX), Y11
	DOTF_TERM(0, Y6)
	DOTF_TERM(32, Y7)
	DOTF_TERM(64, Y8)
	DOTF_TERM(96, Y2)
	ADDQ $24, SI
	ADDQ $16, DX
	DECQ R12
	JNZ  dotfTerm

	DOT_BLOCK_END
	DECQ CX
	JNZ  dotfBlock

dotfDone:
	VZEROUPPER
	RET

// func subMulScalarFMA(out, a, b []uint64, w, wq, q, qinv float64, add int)
//
// out[i] = (a[i] − b[i])·w mod q, plus out[i] when add is non-zero, for
// canonical a, b and a fixed operand w < q: the difference is exact in
// (−q, q), MULW leaves |r| < q/2 + q·2^-7, and the accumulating form reduces
// r + out once more before the canonical store.
TEXT ·subMulScalarFMA(SB), NOSPLIT, $0-112
	SWEEP_PROLOGUE(q+88(FP), smulDone)
	MOVQ b_base+48(FP), DX
	VBROADCASTSD w+72(FP), Y12
	VBROADCASTSD wq+80(FP), Y11
	VBROADCASTSD qinv+96(FP), Y10
	MOVQ add+104(FP), R13

smulLoop:
	VMOVDQU (SI), Y0
	VMOVDQU (DX), Y1
	TOF(Y0)
	TOF(Y1)
	VSUBPD Y1, Y0, Y0
	MULW(Y0, Y12, Y11, Y3, Y4)
	TESTQ R13, R13
	JZ    smulStore
	VMOVDQU (DI), Y2
	TOF(Y2)
	VADDPD Y2, Y3, Y3
	REDUCE(Y3, Y5)

smulStore:
	CANON(Y3, Y4)
	VMOVDQU Y3, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  smulLoop

smulDone:
	VZEROUPPER
	RET

// func addVecAVX2(out, a, b []uint64, q uint64)
//
// out[i] = a[i] + b[i] mod q, with the fold as a signed compare: every value
// compared stays below 2^63 because q < 2^61.
TEXT ·addVecAVX2(SB), NOSPLIT, $0-80
	MOVQ out_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ out_len+8(FP), CX
	SHRQ $2, CX
	JZ   addvDone
	VPBROADCASTQ q+72(FP), Y15

addvLoop:
	VMOVDQU (SI), Y0
	VMOVDQU (DX), Y1
	VPADDQ   Y1, Y0, Y0      // c = a + b < 2q
	VPCMPGTQ Y0, Y15, Y2     // q > c
	VPANDN   Y15, Y2, Y2     // q where c >= q
	VPSUBQ   Y2, Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  addvLoop

addvDone:
	VZEROUPPER
	RET

// func subVecAVX2(out, a, b []uint64, q uint64)
TEXT ·subVecAVX2(SB), NOSPLIT, $0-80
	MOVQ out_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ out_len+8(FP), CX
	SHRQ $2, CX
	JZ   subvDone
	VPBROADCASTQ q+72(FP), Y15

subvLoop:
	VMOVDQU (SI), Y0         // a
	VMOVDQU (DX), Y1         // b
	VPSUBQ   Y1, Y0, Y2      // c = a − b (wraps when b > a)
	VPCMPGTQ Y0, Y1, Y3      // b > a
	VPAND    Y15, Y3, Y3
	VPADDQ   Y3, Y2, Y2      // c += q where a < b
	VMOVDQU Y2, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  subvLoop

subvDone:
	VZEROUPPER
	RET

// func negAddVecAVX2(out, a, b []uint64, q uint64)
//
// out[i] = −(a[i] + b[i]) mod q: the sum folded below q as in addVecAVX2, then
// q minus it where it is not zero.
TEXT ·negAddVecAVX2(SB), NOSPLIT, $0-80
	MOVQ out_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ out_len+8(FP), CX
	SHRQ $2, CX
	JZ   negvDone
	VPBROADCASTQ q+72(FP), Y15
	VPXOR Y9, Y9, Y9

negvLoop:
	VMOVDQU (SI), Y0
	VMOVDQU (DX), Y1
	VPADDQ   Y1, Y0, Y0      // c = a + b < 2q
	VPCMPGTQ Y0, Y15, Y2     // q > c
	VPANDN   Y15, Y2, Y2     // q where c >= q
	VPSUBQ   Y2, Y0, Y0      // c mod q
	VPSUBQ   Y0, Y15, Y3     // q − c
	VPCMPEQQ Y9, Y0, Y2      // c == 0
	VPANDN   Y3, Y2, Y3      // 0 where c == 0
	VMOVDQU Y3, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  negvLoop

negvDone:
	VZEROUPPER
	RET

// func macDigitOuterAVX2(acc, row, x []uint64, stride int, shift, mask uint64)
//
// acc[t·stride + l] += row[t] · (x[l] >> shift & mask) mod 2^64 for every key
// word t and the len(x)/4 whole lane groups of x: a group's digits are formed
// once and kept in Y0 while the row's words are broadcast against them. The
// digit d < 2^32 meets the word's halves in two VPMULUDQ, d·lo + (d·hi << 32),
// which is d·word mod 2^64. Registers: DI acc column, SI row word, DX x
// group, R8 row length, R9 stride in bytes, CX group countdown, R10/R11/R12
// the inner walk; Y15 mask, X14 shift.
TEXT ·macDigitOuterAVX2(SB), NOSPLIT, $0-96
	MOVQ acc_base+0(FP), DI
	MOVQ row_base+24(FP), SI
	MOVQ row_len+32(FP), R8
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), CX
	MOVQ stride+72(FP), R9
	SHLQ $3, R9
	SHRQ $2, CX
	JZ   dmacDone
	TESTQ R8, R8
	JZ   dmacDone
	VMOVQ shift+80(FP), X14
	VPBROADCASTQ mask+88(FP), Y15

dmacGroup:
	VMOVDQU (DX), Y0
	VPSRLQ  X14, Y0, Y0
	VPAND   Y15, Y0, Y0      // the group's digits
	MOVQ DI, R10
	MOVQ SI, R11
	MOVQ R8, R12

dmacWord:
	VPBROADCASTQ (R11), Y1   // key word
	VPSRLQ   $32, Y1, Y2     // its high half
	VPMULUDQ Y0, Y1, Y1      // d·lo
	VPMULUDQ Y0, Y2, Y2      // d·hi
	VPSLLQ   $32, Y2, Y2
	VPADDQ   Y2, Y1, Y1
	VPADDQ   (R10), Y1, Y1
	VMOVDQU  Y1, (R10)
	ADDQ $8, R11
	ADDQ R9, R10
	DECQ R12
	JNZ  dmacWord

	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  dmacGroup

dmacDone:
	VZEROUPPER
	RET
