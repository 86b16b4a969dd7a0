//go:build amd64 && !purego

// Coefficient-sweep kernels: the FMA Hadamard product/MAC (external product
// and key-switch digit accumulation), the FMA fixed-operand multiply and MAC
// (rescale, ModDown, the basis conversion), the integer add/sub sweeps, and
// the wrap-around digit MAC of the LWE key switch (which keeps its own
// register map, below). Each processes len(out)/4 whole 4-lane groups — the
// Go wrappers truncate to a multiple of the vector width and run the scalar
// loop on the tail — and every kernel reads a full lane group before writing
// it, so exact aliasing (out == a or out == b) behaves like the scalar loops. The FMA kernels take
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

// func macShoupFMA(out, a []uint64, w, wq, q, qinv float64)
//
// out[i] = (out[i] + a[i]·w) mod q for a fixed operand w < q — the inner MAC
// of the RNS basis conversion. The quotient is round(a·wq + out/q), so one
// correction makes the sum canonical.
TEXT ·macShoupFMA(SB), NOSPLIT, $0-80
	SWEEP_PROLOGUE(q+64(FP), macsDone)
	VBROADCASTSD w+48(FP), Y12
	VBROADCASTSD wq+56(FP), Y11
	VBROADCASTSD qinv+72(FP), Y10

macsLoop:
	VMOVDQU (SI), Y0
	VMOVDQU (DI), Y2
	TOF(Y0)
	TOF(Y2)
	VMULPD       Y10, Y2, Y5
	VFMADD231PD  Y11, Y0, Y5
	VADDPD       Y14, Y5, Y5
	VSUBPD       Y14, Y5, Y5
	VMULPD       Y12, Y0, Y3
	VFMSUB213PD  Y3, Y12, Y0
	VFNMADD231PD Y15, Y5, Y3
	VADDPD       Y0, Y3, Y3
	VADDPD       Y2, Y3, Y3
	CANON(Y3, Y4)
	VMOVDQU Y3, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  macsLoop

macsDone:
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
