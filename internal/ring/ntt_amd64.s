//go:build amd64 && !purego

// AVX2 butterfly stage kernels for the negacyclic NTT/INTT. Each function
// runs ONE Cooley-Tukey (forward) or Gentleman-Sande (inverse) stage over
// the whole polynomial, vectorized 4 butterflies at a time. The generic
// stage kernels (nttFwdStepAVX2 and friends) are called for stages whose
// block half length t is >= 4: t is a power of two, so every block is then a
// whole number of 4-lane groups and no tail handling is needed. The t=2 and
// t=1 edge stages of the Shoup transforms have kernels of their own
// (nttFwdT2AVX2, nttFwdLastAVX2, nttInvFirstAVX2, nttInvT2AVX2) that load
// two registers, regroup the a and b sides in-register, and interleave the
// results back before the store. The arithmetic is exactly the scalar
// butterflies' — same Harvey lazy intervals ([0,4q) into a forward stage,
// [0,2q) between inverse stages), same reduction order — so the outputs are
// bit-identical.
//
// Register conventions (generic stage kernels):
//   DI  a-side block pointer      SI  twiddle table pointer (at [m] / [h])
//   R8  Shoup-companion pointer   R9  twiddle count (m or h)
//   R10 block half-length t       R11 twiddle index i
//   R13 b-side block pointer      CX  inner countdown (t/4 groups)
//   Y15 q broadcast, Y14 2q broadcast, Y13 0xFFFFFFFF lane mask
// The edge kernels keep DI/SI/R8 and Y13-Y15 and count 8-coefficient steps
// down in R9.

#include "textflag.h"
#include "mul64_amd64.h"

// BCAST_Q2Q_MASK loads the three constants every Shoup kernel pins: q (from
// the argument slot QARG) into Y15, 2q into Y14, the lane mask into Y13.
#define BCAST_Q2Q_MASK(QARG) \
	MOVQ QARG, AX; \
	VMOVQ AX, X0; \
	VPBROADCASTQ X0, Y15; \
	ADDQ AX, AX; \
	VMOVQ AX, X0; \
	VPBROADCASTQ X0, Y14; \
	MOVQ $0x00000000FFFFFFFF, AX; \
	VMOVQ AX, X0; \
	VPBROADCASTQ X0, Y13

// FWD_BFLY: forward butterfly on u = Y0 (raw, < 4q), v = Y1 (< 4q) with
// twiddle Y12 / Shoup companion Y11; leaves a' = u + v' in Y1 and
// b' = u + 2q - v' in Y2 (both < 4q). Clobbers Y0, Y3-Y7.
#define FWD_BFLY \
	CSUB(Y0, Y14, Y2); \
	MULHI64(Y1, Y11, Y3, Y4, Y5, Y6, Y7, Y13); \
	MULLO64(Y1, Y12, Y4, Y5, Y6); \
	MULLO64(Y3, Y15, Y5, Y6, Y7); \
	VPSUBQ Y5, Y4, Y4; \
	VPADDQ Y4, Y0, Y1; \
	VPSUBQ Y4, Y14, Y2; \
	VPADDQ Y2, Y0, Y2

// INV_BFLY: inverse butterfly on u = Y0, v = Y1 (both < 2q) with twiddle
// Y12 / Shoup companion Y11; leaves a' = fold2q(u + v) in Y2 and
// b' = lazy Shoup((u + 2q - v)·w) < 2q in Y4. Clobbers Y0, Y3, Y5-Y7.
#define INV_BFLY \
	VPADDQ Y1, Y0, Y2; \
	CSUB(Y2, Y14, Y3); \
	VPSUBQ Y1, Y14, Y3; \
	VPADDQ Y3, Y0, Y0; \
	MULHI64(Y0, Y11, Y3, Y4, Y5, Y6, Y7, Y13); \
	MULLO64(Y0, Y12, Y4, Y5, Y6); \
	MULLO64(Y3, Y15, Y5, Y6, Y7); \
	VPSUBQ Y5, Y4, Y4

// func nttFwdStepAVX2(p []uint64, psi, psiShoup []uint64, q uint64, m, t int)
//
// Forward Shoup-twiddle stage: for each twiddle i < m, block at j1 = 2*i*t,
//   u = fold2q(a[j]);  v' = v*w - mulhi(v, wS)*q   (lazy Shoup, < 2q)
//   a[j] = u + v';  b[j] = u + 2q - v'             (both < 4q)
TEXT ·nttFwdStepAVX2(SB), NOSPLIT, $0-96
	MOVQ p_base+0(FP), DI
	MOVQ psi_base+24(FP), SI
	MOVQ psiShoup_base+48(FP), R8
	MOVQ m+80(FP), R9
	MOVQ t+88(FP), R10
	BCAST_Q2Q_MASK(q+72(FP))

	LEAQ (SI)(R9*8), SI     // &psi[m]
	LEAQ (R8)(R9*8), R8     // &psiShoup[m]
	XORQ R11, R11           // i = 0

fwdILoop:
	CMPQ R11, R9
	JGE  fwdDone
	VPBROADCASTQ (SI)(R11*8), Y12    // w
	VPBROADCASTQ (R8)(R11*8), Y11    // wShoup
	LEAQ (DI)(R10*8), R13   // b = a + t
	MOVQ R10, CX

fwdJLoop:
	VMOVDQU (DI), Y0        // u (raw, < 4q)
	VMOVDQU (R13), Y1       // v (< 4q)
	FWD_BFLY
	VMOVDQU Y1, (DI)
	VMOVDQU Y2, (R13)
	ADDQ $32, DI
	ADDQ $32, R13
	SUBQ $4, CX
	JNZ  fwdJLoop

	LEAQ (DI)(R10*8), DI    // skip the b half: next block start
	INCQ R11
	JMP  fwdILoop

fwdDone:
	VZEROUPPER
	RET

// func nttInvStepAVX2(p []uint64, psiInv, psiInvShoup []uint64, q uint64, h, t int)
//
// Inverse Shoup-twiddle stage: for each twiddle i < h, block at j1 = 2*i*t,
//   a[j] = fold2q(u + v);  b[j] = (u + 2q - v)*w - mulhi(...)*q  (< 2q)
TEXT ·nttInvStepAVX2(SB), NOSPLIT, $0-96
	MOVQ p_base+0(FP), DI
	MOVQ psiInv_base+24(FP), SI
	MOVQ psiInvShoup_base+48(FP), R8
	MOVQ h+80(FP), R9
	MOVQ t+88(FP), R10
	BCAST_Q2Q_MASK(q+72(FP))

	LEAQ (SI)(R9*8), SI     // &psiInv[h]
	LEAQ (R8)(R9*8), R8     // &psiInvShoup[h]
	XORQ R11, R11           // i = 0

invILoop:
	CMPQ R11, R9
	JGE  invDone
	VPBROADCASTQ (SI)(R11*8), Y12    // w
	VPBROADCASTQ (R8)(R11*8), Y11    // wShoup
	LEAQ (DI)(R10*8), R13   // b = a + t
	MOVQ R10, CX

invJLoop:
	VMOVDQU (DI), Y0        // u (< 2q)
	VMOVDQU (R13), Y1       // v (< 2q)
	INV_BFLY
	VMOVDQU Y2, (DI)
	VMOVDQU Y4, (R13)
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

// The t=2 stages: block i is the four contiguous words [a0 a1 b0 b1] under
// one twiddle. A step loads two blocks, gathers the a halves and the b
// halves with VPERM2I128 (u = [a0 a1 a0' a1'], v = [b0 b1 b0' b1']), loads
// the two twiddles contiguously and widens them to [w w w' w'] with VPERMQ,
// and splits the results back into block order before the store.
#define LOAD_T2 \
	VMOVDQU (SI), X12; \
	VPERMQ $0x50, Y12, Y12; \
	VMOVDQU (R8), X11; \
	VPERMQ $0x50, Y11, Y11; \
	VMOVDQU (DI), Y8; \
	VMOVDQU 32(DI), Y9; \
	VPERM2I128 $0x20, Y9, Y8, Y0; \
	VPERM2I128 $0x31, Y9, Y8, Y1

#define STORE_T2(A, B) \
	VPERM2I128 $0x20, B, A, Y8; \
	VPERM2I128 $0x31, B, A, Y9; \
	VMOVDQU Y8, (DI); \
	VMOVDQU Y9, 32(DI); \
	ADDQ $16, SI; \
	ADDQ $16, R8; \
	ADDQ $64, DI

// The t=1 stages: pairs [a b] are adjacent, one twiddle each. A step loads
// four pairs, separates them with VPUNPCK{L,H}QDQ (u = [a0 a2 a1 a3],
// v = [b0 b2 b1 b3] — the unpacks work per 128-bit half), loads the four
// twiddles contiguously permuted into the same 0,2,1,3 order, and
// re-interleaves with the same two unpacks before the store.
#define LOAD_T1 \
	VPERMQ $0xD8, (SI), Y12; \
	VPERMQ $0xD8, (R8), Y11; \
	VMOVDQU (DI), Y8; \
	VMOVDQU 32(DI), Y9; \
	VPUNPCKLQDQ Y9, Y8, Y0; \
	VPUNPCKHQDQ Y9, Y8, Y1

#define STORE_T1(A, B) \
	VPUNPCKLQDQ B, A, Y8; \
	VPUNPCKHQDQ B, A, Y9; \
	VMOVDQU Y8, (DI); \
	VMOVDQU Y9, 32(DI); \
	ADDQ $32, SI; \
	ADDQ $32, R8; \
	ADDQ $64, DI

// func nttFwdT2AVX2(p []uint64, psi, psiShoup []uint64, q uint64)
//
// Forward stage t=2 (m = n/4 twiddles at psi[m:]); n >= 8.
TEXT ·nttFwdT2AVX2(SB), NOSPLIT, $0-80
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), R9
	MOVQ psi_base+24(FP), SI
	MOVQ psiShoup_base+48(FP), R8
	BCAST_Q2Q_MASK(q+72(FP))
	SHRQ $2, R9
	LEAQ (SI)(R9*8), SI     // &psi[n/4]
	LEAQ (R8)(R9*8), R8
	SHRQ $1, R9             // n/8 steps

fwdT2Loop:
	LOAD_T2
	FWD_BFLY
	STORE_T2(Y1, Y2)
	DECQ R9
	JNZ  fwdT2Loop
	VZEROUPPER
	RET

// func nttFwdLastAVX2(p []uint64, psi, psiShoup []uint64, q uint64)
//
// Forward last stage t=1 (m = n/2 twiddles at psi[m:]) with the canonical
// output folds fused in: both outputs are brought from [0, 4q) to [0, 2q)
// and then to [0, q). n >= 8.
TEXT ·nttFwdLastAVX2(SB), NOSPLIT, $0-80
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), R9
	MOVQ psi_base+24(FP), SI
	MOVQ psiShoup_base+48(FP), R8
	BCAST_Q2Q_MASK(q+72(FP))
	SHRQ $1, R9
	LEAQ (SI)(R9*8), SI     // &psi[n/2]
	LEAQ (R8)(R9*8), R8
	SHRQ $2, R9             // n/8 steps

fwdLastLoop:
	LOAD_T1
	FWD_BFLY
	CSUB(Y1, Y14, Y3)
	CSUB(Y1, Y15, Y3)
	CSUB(Y2, Y14, Y3)
	CSUB(Y2, Y15, Y3)
	STORE_T1(Y1, Y2)
	DECQ R9
	JNZ  fwdLastLoop
	VZEROUPPER
	RET

// func nttInvFirstAVX2(p []uint64, psiInv, psiInvShoup []uint64, q uint64)
//
// Inverse first stage t=1 (h = n/2 twiddles at psiInv[h:]); n >= 8.
TEXT ·nttInvFirstAVX2(SB), NOSPLIT, $0-80
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), R9
	MOVQ psiInv_base+24(FP), SI
	MOVQ psiInvShoup_base+48(FP), R8
	BCAST_Q2Q_MASK(q+72(FP))
	SHRQ $1, R9
	LEAQ (SI)(R9*8), SI     // &psiInv[n/2]
	LEAQ (R8)(R9*8), R8
	SHRQ $2, R9             // n/8 steps

invFirstLoop:
	LOAD_T1
	INV_BFLY
	STORE_T1(Y2, Y4)
	DECQ R9
	JNZ  invFirstLoop
	VZEROUPPER
	RET

// func nttInvT2AVX2(p []uint64, psiInv, psiInvShoup []uint64, q uint64)
//
// Inverse stage t=2 (h = n/4 twiddles at psiInv[h:]); n >= 8.
TEXT ·nttInvT2AVX2(SB), NOSPLIT, $0-80
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), R9
	MOVQ psiInv_base+24(FP), SI
	MOVQ psiInvShoup_base+48(FP), R8
	BCAST_Q2Q_MASK(q+72(FP))
	SHRQ $2, R9
	LEAQ (SI)(R9*8), SI     // &psiInv[n/4]
	LEAQ (R8)(R9*8), R8
	SHRQ $1, R9             // n/8 steps

invT2Loop:
	LOAD_T2
	INV_BFLY
	STORE_T2(Y2, Y4)
	DECQ R9
	JNZ  invT2Loop
	VZEROUPPER
	RET
