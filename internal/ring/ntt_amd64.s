//go:build amd64 && !purego

// FMA butterfly stage kernels for the negacyclic NTT/INTT. Each function
// runs ONE Cooley-Tukey (forward) or Gentleman-Sande (inverse) stage over the
// whole polynomial, four butterflies per step, on residues held as exact
// integer-valued doubles (fma_amd64.h). Between the first and the last stage
// of a transform the polynomial's words hold those doubles; only the first
// stage reads words (out of place: src may be dst) and only the last stage
// writes them, canonical. A twiddle w is read from the ring's integer table
// and converted; its companion w/q comes from the float table beside it.
//
// Forward: the u side is never reduced, so a coefficient after s stages is
// below q + s·(q/2 + …) in magnitude; the last stage (t=1) reduces both
// outputs. Inverse: the u+v side is reduced in every generic stage; the last
// stage (t=n/2) folds N^{-1} into both outputs. Stages with t ≥ 4 process
// whole 4-lane groups under a broadcast twiddle; the t=2 and t=1 stages load
// two registers, regroup the a and b sides in-register and interleave back
// before the store.
//
// Register conventions (generic stage kernels):
//   DI  a-side block pointer      SI  twiddle table pointer (at [m] / [h])
//   R8  w/q table pointer         R9  twiddle count (m or h)
//   R10 block half-length t       R11 twiddle index i
//   R13 b-side block pointer      CX  inner countdown (t/4 groups)
//   Y12 w, Y11 w/q, plus the pinned Y13-Y15 of fma_amd64.h
// The edge kernels keep DI/SI/R8 and count 8-coefficient steps down in R9.

#include "textflag.h"
#include "fma_amd64.h"

// FWD_BFLY: u = Y0, v = Y1 → a' = u + v·w in Y1, b' = u − v·w in Y2.
#define FWD_BFLY \
	MULW(Y1, Y12, Y11, Y2, Y3); \
	VADDPD Y2, Y0, Y1; \
	VSUBPD Y2, Y0, Y2

// INV_BFLY: u = Y0, v = Y1 → a' = u + v in Y2, b' = (u − v)·w in Y4.
#define INV_BFLY \
	VADDPD Y1, Y0, Y2; \
	VSUBPD Y1, Y0, Y0; \
	MULW(Y0, Y12, Y11, Y4, Y3)

// The t=2 stages: block i is the four contiguous words [a0 a1 b0 b1] under
// one twiddle. A step loads two blocks, gathers the a halves and the b halves
// with VPERM2F128 (u = [a0 a1 a0' a1'], v = [b0 b1 b0' b1']), loads the two
// twiddles and their w/q and widens each pair to [w w w' w'] with one
// permute, and splits the results back into block order before the store.
#define LOAD_T2 \
	VMOVDQU (SI), X12; \
	VPERMQ $0x50, Y12, Y12; \
	TOF(Y12); \
	VMOVUPD (R8), X11; \
	VPERMPD $0x50, Y11, Y11; \
	VMOVUPD (DI), Y6; \
	VMOVUPD 32(DI), Y7; \
	VPERM2F128 $0x20, Y7, Y6, Y0; \
	VPERM2F128 $0x31, Y7, Y6, Y1

#define STORE_T2(A, B) \
	VPERM2F128 $0x20, B, A, Y6; \
	VPERM2F128 $0x31, B, A, Y7; \
	VMOVUPD Y6, (DI); \
	VMOVUPD Y7, 32(DI); \
	ADDQ $16, SI; \
	ADDQ $16, R8; \
	ADDQ $64, DI

// The t=1 stages: pairs [a b] are adjacent, one twiddle each. A step loads
// four pairs from SRC, separates them with VUNPCK{L,H}PD (u = [a0 a2 a1 a3],
// v = [b0 b2 b1 b3]: the unpacks work per 128-bit half), loads the four
// twiddles permuted into the same 0,2,1,3 order, and re-interleaves with the
// same two unpacks before the store.
#define LOAD_T1(SRC) \
	VPERMQ $0xD8, (SI), Y12; \
	TOF(Y12); \
	VPERMPD $0xD8, (R8), Y11; \
	VMOVUPD (SRC), Y6; \
	VMOVUPD 32(SRC), Y7; \
	VUNPCKLPD Y7, Y6, Y0; \
	VUNPCKHPD Y7, Y6, Y1

#define STORE_T1(A, B) \
	VUNPCKLPD B, A, Y6; \
	VUNPCKHPD B, A, Y7; \
	VMOVUPD Y6, (DI); \
	VMOVUPD Y7, 32(DI); \
	ADDQ $32, SI; \
	ADDQ $32, R8; \
	ADDQ $64, DI

// EDGE_PROLOGUE(SHIFT1, SHIFT2): p in DI, its length in R9, the twiddle
// tables in SI/R8 advanced to entry n>>SHIFT1, then n/8 steps in R9.
#define EDGE_PROLOGUE(SHIFT1, SHIFT2) \
	MOVQ p_base+0(FP), DI; \
	MOVQ p_len+8(FP), R9; \
	MOVQ w_base+24(FP), SI; \
	MOVQ wq_base+48(FP), R8; \
	FMA_CONSTS(q+72(FP)); \
	SHRQ $SHIFT1, R9; \
	LEAQ (SI)(R9*8), SI; \
	LEAQ (R8)(R9*8), R8; \
	SHRQ $SHIFT2, R9

// func fmaFwdFirst(dst, src []uint64, w, wq, q float64)
//
// Forward stage m=1, t=n/2: words of src in, doubles of dst out.
TEXT ·fmaFwdFirst(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	VBROADCASTSD w+48(FP), Y12
	VBROADCASTSD wq+56(FP), Y11
	FMA_CONSTS(q+64(FP))
	SHRQ $1, CX
	LEAQ (DI)(CX*8), R13
	LEAQ (SI)(CX*8), R8
	SHRQ $2, CX

fwdFirstLoop:
	VMOVDQU (SI), Y0
	VMOVDQU (R8), Y1
	TOF(Y0)
	TOF(Y1)
	FWD_BFLY
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, (R13)
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, DI
	ADDQ $32, R13
	DECQ CX
	JNZ  fwdFirstLoop
	VZEROUPPER
	RET

// func fmaFwdStep(p, w []uint64, wq []float64, m, t int, q float64)
//
// Forward stage with m twiddles at w[m:], block half-length t ≥ 4.
TEXT ·fmaFwdStep(SB), NOSPLIT, $0-96
	MOVQ p_base+0(FP), DI
	MOVQ w_base+24(FP), SI
	MOVQ wq_base+48(FP), R8
	MOVQ m+72(FP), R9
	MOVQ t+80(FP), R10
	FMA_CONSTS(q+88(FP))
	LEAQ (SI)(R9*8), SI
	LEAQ (R8)(R9*8), R8
	XORQ R11, R11

fwdILoop:
	CMPQ R11, R9
	JGE  fwdDone
	VPBROADCASTQ (SI)(R11*8), Y12
	TOF(Y12)
	VBROADCASTSD (R8)(R11*8), Y11
	LEAQ (DI)(R10*8), R13
	MOVQ R10, CX

fwdJLoop:
	VMOVUPD (DI), Y0
	VMOVUPD (R13), Y1
	FWD_BFLY
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, (R13)
	ADDQ $32, DI
	ADDQ $32, R13
	SUBQ $4, CX
	JNZ  fwdJLoop

	LEAQ (DI)(R10*8), DI
	INCQ R11
	JMP  fwdILoop

fwdDone:
	VZEROUPPER
	RET

// func fmaInvStep(p, w []uint64, wq []float64, h, t int, q, qinv float64)
//
// Inverse stage with h twiddles at w[h:], block half-length t ≥ 4; the
// a side is reduced.
TEXT ·fmaInvStep(SB), NOSPLIT, $0-104
	MOVQ p_base+0(FP), DI
	MOVQ w_base+24(FP), SI
	MOVQ wq_base+48(FP), R8
	MOVQ h+72(FP), R9
	MOVQ t+80(FP), R10
	FMA_CONSTS(q+88(FP))
	VBROADCASTSD qinv+96(FP), Y10
	LEAQ (SI)(R9*8), SI
	LEAQ (R8)(R9*8), R8
	XORQ R11, R11

invILoop:
	CMPQ R11, R9
	JGE  invDone
	VPBROADCASTQ (SI)(R11*8), Y12
	TOF(Y12)
	VBROADCASTSD (R8)(R11*8), Y11
	LEAQ (DI)(R10*8), R13
	MOVQ R10, CX

invJLoop:
	VMOVUPD (DI), Y0
	VMOVUPD (R13), Y1
	INV_BFLY
	REDUCE(Y2, Y3)
	VMOVUPD Y2, (DI)
	VMOVUPD Y4, (R13)
	ADDQ $32, DI
	ADDQ $32, R13
	SUBQ $4, CX
	JNZ  invJLoop

	LEAQ (DI)(R10*8), DI
	INCQ R11
	JMP  invILoop

invDone:
	VZEROUPPER
	RET

// func fmaInvLast(p []uint64, n1, n1q, wn, wnq, q float64)
//
// Inverse stage h=1, t=n/2 with N^{-1} folded in: a' = (u+v)·n1 and
// b' = (u−v)·wn, wn = w·N^{-1} mod q, both canonical words.
TEXT ·fmaInvLast(SB), NOSPLIT, $0-64
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	VBROADCASTSD n1+24(FP), Y12
	VBROADCASTSD n1q+32(FP), Y11
	VBROADCASTSD wn+40(FP), Y10
	VBROADCASTSD wnq+48(FP), Y8
	FMA_CONSTS(q+56(FP))
	VXORPD Y9, Y9, Y9
	SHRQ $1, CX
	LEAQ (DI)(CX*8), R13
	SHRQ $2, CX

invLastLoop:
	VMOVUPD (DI), Y0
	VMOVUPD (R13), Y1
	VADDPD Y1, Y0, Y2
	VSUBPD Y1, Y0, Y0
	MULW(Y2, Y12, Y11, Y4, Y3)
	MULW(Y0, Y10, Y8, Y5, Y3)
	CANON(Y4, Y3)
	CANON(Y5, Y3)
	VMOVDQU Y4, (DI)
	VMOVDQU Y5, (R13)
	ADDQ $32, DI
	ADDQ $32, R13
	DECQ CX
	JNZ  invLastLoop
	VZEROUPPER
	RET

// func fmaFwdT2(p, w []uint64, wq []float64, q float64)
TEXT ·fmaFwdT2(SB), NOSPLIT, $0-80
	EDGE_PROLOGUE(2, 1)

fwdT2Loop:
	LOAD_T2
	FWD_BFLY
	STORE_T2(Y1, Y2)
	DECQ R9
	JNZ  fwdT2Loop
	VZEROUPPER
	RET

// func fmaFwdLast(p, w []uint64, wq []float64, q, qinv float64)
//
// Forward stage t=1: both outputs reduced to canonical words.
TEXT ·fmaFwdLast(SB), NOSPLIT, $0-88
	EDGE_PROLOGUE(1, 2)
	VBROADCASTSD qinv+80(FP), Y10
	VXORPD Y9, Y9, Y9

fwdLastLoop:
	LOAD_T1(DI)
	FWD_BFLY
	REDUCE(Y1, Y3)
	REDUCE(Y2, Y3)
	CANON(Y1, Y3)
	CANON(Y2, Y3)
	STORE_T1(Y1, Y2)
	DECQ R9
	JNZ  fwdLastLoop
	VZEROUPPER
	RET

// func fmaInvT2(p, w []uint64, wq []float64, q float64)
TEXT ·fmaInvT2(SB), NOSPLIT, $0-80
	EDGE_PROLOGUE(2, 1)

invT2Loop:
	LOAD_T2
	INV_BFLY
	STORE_T2(Y2, Y4)
	DECQ R9
	JNZ  invT2Loop
	VZEROUPPER
	RET

// func fmaInvFirst(p, w []uint64, wq []float64, q float64, src []uint64)
//
// Inverse stage t=1: words of src in, doubles of p out.
TEXT ·fmaInvFirst(SB), NOSPLIT, $0-104
	EDGE_PROLOGUE(1, 2)
	MOVQ src_base+80(FP), DX

invFirstLoop:
	LOAD_T1(DX)
	TOF(Y0)
	TOF(Y1)
	INV_BFLY
	STORE_T1(Y2, Y4)
	ADDQ $64, DX
	DECQ R9
	JNZ  invFirstLoop
	VZEROUPPER
	RET
