//go:build amd64 && !purego

// FMA butterfly kernels for the negacyclic NTT/INTT, on residues held as
// exact integer-valued doubles (fma_amd64.h), four butterflies per lane
// group. A pass runs one or two Cooley-Tukey (forward) or Gentleman-Sande
// (inverse) stages over the whole polynomial; with two, the middle values stay
// in registers. Between the first and the last pass of a transform the
// polynomial's words hold those doubles; only the first pass reads words (out
// of place: src may be dst) and only the last pass writes them, canonical. A
// twiddle w is read from the ring's integer table and converted; its companion
// w/q comes from the float table beside it.
//
// Forward: the u side is never reduced, so a coefficient after s stages is
// below q + s·(q/2 + …) in magnitude; the last stage (t=1) reduces both
// outputs. Inverse: a two-stage pass reduces one of its four u+v sums, a
// one-stage pass its u+v side; the last stage (t=n/2) folds N^{-1} into both
// outputs. Stages with t ≥ 4 process
// whole 4-lane groups under a broadcast twiddle, one stage per pass
// (fma{Fwd,Inv}Step) or two (fma{Fwd,Inv}Step2, the quarters A B C D of each
// block of the wider stage in four registers). The t=2 and t=1 stages run as
// one edge pass (forward: fmaFwdTail, inverse: fmaInvHead) that splits each
// eight words across two registers as it loads them, regroups them in-lane
// between the two stages and stores the split back, two groups of eight per
// step.
//
// Register conventions (generic stage kernels):
//   DI  A-quarter (a-side) pointer  R13 C-quarter (b-side) pointer
//   SI  twiddle table pointer       R8  w/q table pointer
//   R11, R12  the second twiddle/w/q pointers of a two-stage pass
//   R9  block countdown             R10 quarter (half-block) length in bytes
//   CX  inner countdown in bytes (four words per step)
//   Y12 w, Y11 w/q in the one-stage kernels; Y4-Y9 three twiddle pairs in
//   the two-stage ones; plus the pinned Y13-Y15 of fma_amd64.h
// The edge kernels keep DI/R13, the t=2 twiddles in SI/R8 and the t=1 ones
// in R11/R12, and count 16-coefficient steps down in R9.

#include "textflag.h"
#include "fma_amd64.h"

// FWD_BFLY(U, V, W, WQ, R, K): r = V·W mod q (MULW), then U ← U + r and
// V ← U − r. Clobbers R and K.
#define FWD_BFLY(U, V, W, WQ, R, K) \
	MULW(V, W, WQ, R, K); \
	VSUBPD R, U, V; \
	VADDPD R, U, U

// INV_BFLY(U, V, W, WQ, S, K): U ← U + V and V ← (U − V)·W mod q; the
// caller reduces U where the stage asks for it. Clobbers S and K.
#define INV_BFLY(U, V, W, WQ, S, K) \
	VSUBPD V, U, S; \
	VADDPD V, U, U; \
	MULW(S, W, WQ, V, K)

// BCAST_W(OFF, WP, WQP, W, WQ): the twiddle at OFF(WP) into every lane of W,
// converted, and its w/q at OFF(WQP) into WQ.
#define BCAST_W(OFF, WP, WQP, W, WQ) \
	VPBROADCASTQ OFF(WP), W; \
	TOF(W); \
	VBROADCASTSD OFF(WQP), WQ

// The edge passes take sixteen words per step, as two independent groups of
// eight, [x0 … x7] at DI and the next eight at R13: the two groups'
// dependency chains interleave, which the long chain of one group (two
// butterflies and, forward, the reduction) leaves the out-of-order window
// short of. LOAD_SPLIT(SRC, XA, A, XB, B) loads a group as A = [x0 x1 x4 x5]
// and B = [x2 x3 x6 x7], the two halves of each 128-bit lane going to
// different registers with VINSERTF128 from memory; STORE_SPLIT stores
// A = [z0 z1 z4 z5] and B = [z2 z3 z6 z7] back in order with VEXTRACTF128 to
// memory. Neither needs a cross-lane shuffle, and the unpacks between the
// stages are in-lane.
#define LOAD_SPLIT(SRC, XA, A, XB, B) \
	VMOVUPD (SRC), XA; \
	VINSERTF128 $1, 32(SRC), A, A; \
	VMOVUPD 16(SRC), XB; \
	VINSERTF128 $1, 48(SRC), B, B

#define STORE_SPLIT(DST, XA, A, XB, B) \
	VMOVUPD XA, (DST); \
	VMOVUPD XB, 16(DST); \
	VEXTRACTF128 $1, A, 32(DST); \
	VEXTRACTF128 $1, B, 48(DST)

// The t=2 stage: block i is the four contiguous words [a0 a1 b0 b1] under
// one twiddle, so a group holds two blocks: their a halves are the split's
// [x0 x1 x4 x5], their b halves [x2 x3 x6 x7]. LOAD_T2_W(W, W8, Q, Q8, T, TQ)
// broadcasts the two twiddles at W and W8 (w/q at Q and Q8) and blends them
// into [w w w' w'] in Y12 (Y11), with T and TQ as scratch.
#define LOAD_T2_W(W, W8, Q, Q8, T, TQ) \
	VPBROADCASTQ W, Y12; \
	VPBROADCASTQ W8, T; \
	VPBLENDD $0xF0, T, Y12, Y12; \
	TOF(Y12); \
	VBROADCASTSD Q, Y11; \
	VBROADCASTSD Q8, TQ; \
	VBLENDPD $0xC, TQ, Y11, Y11

// The t=1 stage: the pairs [a b] are adjacent, one twiddle each, so a group
// holds four pairs; unpacking the split gives their a sides [x0 x2 x4 x6]
// and b sides [x1 x3 x5 x7] in order, so LOAD_T1_W(W, Q) loads the four
// twiddles at W (w/q at Q) as they are.
#define LOAD_T1_W(W, Q) \
	VMOVDQU W, Y12; \
	TOF(Y12); \
	VMOVUPD Q, Y11

// EDGE_PROLOGUE: p in DI, the t=1 twiddles (entry n/2) in R11/R12, the t=2
// ones (entry n/4) in SI/R8, n/16 steps in R9, and in BX the distance from a
// step's first group to its second in t=2 twiddle bytes (16; the t=1
// twiddles are 2·BX on, the words 4·BX, in R13). At n = 8 there is one step
// whose two groups are the same eight words (BX = 0): both are loaded before
// either is stored, so the same words are written twice.
#define EDGE_PROLOGUE \
	MOVQ p_base+0(FP), DI; \
	MOVQ p_len+8(FP), R9; \
	MOVQ w_base+24(FP), SI; \
	MOVQ wq_base+48(FP), R8; \
	FMA_CONSTS(q+72(FP)); \
	SHRQ $1, R9; \
	LEAQ (SI)(R9*8), R11; \
	LEAQ (R8)(R9*8), R12; \
	SHRQ $1, R9; \
	LEAQ (SI)(R9*8), SI; \
	LEAQ (R8)(R9*8), R8; \
	MOVQ $16, BX; \
	SHRQ $2, R9; \
	JNZ  3(PC); \
	XORQ BX, BX; \
	INCQ R9; \
	LEAQ (DI)(BX*4), R13

#define EDGE_ADVANCE \
	ADDQ $32, SI; \
	ADDQ $32, R8; \
	ADDQ $64, R11; \
	ADDQ $64, R12; \
	ADDQ $128, DI; \
	ADDQ $128, R13

// STEP_PROLOGUE(CNT): p in DI, the tables in SI/R8, the count argument (m or
// h) in R9 and the (first) stage's half-length t in R10.
#define STEP_PROLOGUE(CNT) \
	MOVQ p_base+0(FP), DI; \
	MOVQ w_base+24(FP), SI; \
	MOVQ wq_base+48(FP), R8; \
	MOVQ CNT, R9; \
	MOVQ t+80(FP), R10; \
	FMA_CONSTS(q+88(FP))

// QUARTERS_LOAD / QUARTERS_STORE: the four lane groups at DI, DI+R10, R13
// and R13+R10 (the quarters A B C D of a block) to and from Y0-Y3.
#define QUARTERS_LOAD \
	VMOVUPD (DI), Y0; \
	VMOVUPD (DI)(R10*1), Y1; \
	VMOVUPD (R13), Y2; \
	VMOVUPD (R13)(R10*1), Y3

#define QUARTERS_STORE \
	VMOVUPD Y0, (DI); \
	VMOVUPD Y1, (DI)(R10*1); \
	VMOVUPD Y2, (R13); \
	VMOVUPD Y3, (R13)(R10*1); \
	ADDQ $32, DI; \
	ADDQ $32, R13

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
	FWD_BFLY(Y0, Y1, Y12, Y11, Y2, Y3)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (R13)
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
	STEP_PROLOGUE(m+72(FP))
	LEAQ (SI)(R9*8), SI
	LEAQ (R8)(R9*8), R8
	SHLQ $3, R10

fwdILoop:
	BCAST_W(0, SI, R8, Y12, Y11)
	LEAQ (DI)(R10*1), R13
	MOVQ R10, CX

fwdJLoop:
	VMOVUPD (DI), Y0
	VMOVUPD (R13), Y1
	FWD_BFLY(Y0, Y1, Y12, Y11, Y2, Y3)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (R13)
	ADDQ $32, DI
	ADDQ $32, R13
	SUBQ $32, CX
	JNZ  fwdJLoop

	MOVQ R13, DI
	ADDQ $8, SI
	ADDQ $8, R8
	DECQ R9
	JNZ  fwdILoop
	VZEROUPPER
	RET

// func fmaFwdStep2(p, w []uint64, wq []float64, m, t int, q float64)
//
// Forward stages m and 2m, t the first one's block half-length (t ≥ 8):
// each block of 2t words is the quarters A B C D of t/2 words. Stage m runs
// (A,C) and (B,D) under w[m+i], then stage 2m runs (A,B) under w[2m+2i] and
// (C,D) under w[2m+2i+1], on the same four registers.
TEXT ·fmaFwdStep2(SB), NOSPLIT, $0-96
	STEP_PROLOGUE(m+72(FP))
	LEAQ (SI)(R9*8), SI
	LEAQ (R8)(R9*8), R8
	LEAQ (SI)(R9*8), R11
	LEAQ (R8)(R9*8), R12
	SHLQ $2, R10

fwd2ILoop:
	BCAST_W(0, SI, R8, Y4, Y5)
	BCAST_W(0, R11, R12, Y6, Y7)
	BCAST_W(8, R11, R12, Y8, Y9)
	LEAQ (DI)(R10*2), R13
	MOVQ R10, CX

fwd2JLoop:
	QUARTERS_LOAD
	FWD_BFLY(Y0, Y2, Y4, Y5, Y10, Y11)
	FWD_BFLY(Y1, Y3, Y4, Y5, Y10, Y11)
	FWD_BFLY(Y0, Y1, Y6, Y7, Y10, Y11)
	FWD_BFLY(Y2, Y3, Y8, Y9, Y10, Y11)
	QUARTERS_STORE
	SUBQ $32, CX
	JNZ  fwd2JLoop

	LEAQ (R13)(R10*1), DI
	ADDQ $8, SI
	ADDQ $8, R8
	ADDQ $16, R11
	ADDQ $16, R12
	DECQ R9
	JNZ  fwd2ILoop
	VZEROUPPER
	RET

// func fmaFwdTail(p, w []uint64, wq []float64, q, qinv float64)
//
// Forward stages t=2 and t=1, the last two, in one pass: a group's t=2
// outputs [y0 y1 y4 y5] and [y2 y3 y6 y7] unpack straight into its t=1 sides
// [y0 y2 y4 y6] and [y1 y3 y5 y7], whose outputs are reduced to canonical
// words and unpacked back into the split for the store.
TEXT ·fmaFwdTail(SB), NOSPLIT, $0-88
	EDGE_PROLOGUE
	VBROADCASTSD qinv+80(FP), Y10
	VXORPD Y9, Y9, Y9

fwdTailLoop:
	LOAD_SPLIT(DI, X0, Y0, X1, Y1)
	LOAD_SPLIT(R13, X4, Y4, X5, Y5)
	LOAD_T2_W((SI), 8(SI), (R8), 8(R8), Y2, Y3)
	FWD_BFLY(Y0, Y1, Y12, Y11, Y2, Y3)
	LOAD_T2_W((SI)(BX*1), 8(SI)(BX*1), (R8)(BX*1), 8(R8)(BX*1), Y2, Y3)
	FWD_BFLY(Y4, Y5, Y12, Y11, Y2, Y3)
	VUNPCKLPD Y1, Y0, Y6
	VUNPCKHPD Y1, Y0, Y7
	VUNPCKLPD Y5, Y4, Y0
	VUNPCKHPD Y5, Y4, Y1
	LOAD_T1_W((R11), (R12))
	FWD_BFLY(Y6, Y7, Y12, Y11, Y2, Y3)
	LOAD_T1_W((R11)(BX*2), (R12)(BX*2))
	FWD_BFLY(Y0, Y1, Y12, Y11, Y2, Y3)
	REDUCE(Y6, Y3)
	REDUCE(Y7, Y3)
	REDUCE(Y0, Y2)
	REDUCE(Y1, Y2)
	CANON(Y6, Y3)
	CANON(Y7, Y3)
	CANON(Y0, Y2)
	CANON(Y1, Y2)
	VUNPCKLPD Y7, Y6, Y4
	VUNPCKHPD Y7, Y6, Y5
	VUNPCKLPD Y1, Y0, Y6
	VUNPCKHPD Y1, Y0, Y7
	STORE_SPLIT(DI, X4, Y4, X5, Y5)
	STORE_SPLIT(R13, X6, Y6, X7, Y7)
	EDGE_ADVANCE
	DECQ R9
	JNZ  fwdTailLoop
	VZEROUPPER
	RET

// func fmaInvHead(p, w []uint64, wq []float64, q float64, src []uint64)
//
// Inverse stages t=1 and t=2, the first two, in one pass: words of src in,
// doubles of p out. Unpacking a group's split gives its t=1 sides
// [x0 x2 x4 x6] and [x1 x3 x5 x7]; their outputs unpack straight into the
// t=2 sides [y0 y1 y4 y5] and [y2 y3 y6 y7], which are the split for the
// store.
TEXT ·fmaInvHead(SB), NOSPLIT, $0-104
	EDGE_PROLOGUE
	MOVQ src_base+80(FP), R10
	LEAQ (R10)(BX*4), CX

invHeadLoop:
	LOAD_SPLIT(R10, X0, Y0, X1, Y1)
	LOAD_SPLIT(CX, X4, Y4, X5, Y5)
	TOF(Y0)
	TOF(Y1)
	TOF(Y4)
	TOF(Y5)
	VUNPCKLPD Y1, Y0, Y6
	VUNPCKHPD Y1, Y0, Y7
	VUNPCKLPD Y5, Y4, Y0
	VUNPCKHPD Y5, Y4, Y1
	LOAD_T1_W((R11), (R12))
	INV_BFLY(Y6, Y7, Y12, Y11, Y2, Y3)
	LOAD_T1_W((R11)(BX*2), (R12)(BX*2))
	INV_BFLY(Y0, Y1, Y12, Y11, Y2, Y3)
	VUNPCKLPD Y7, Y6, Y4
	VUNPCKHPD Y7, Y6, Y5
	VUNPCKLPD Y1, Y0, Y6
	VUNPCKHPD Y1, Y0, Y7
	LOAD_T2_W((SI), 8(SI), (R8), 8(R8), Y2, Y3)
	INV_BFLY(Y4, Y5, Y12, Y11, Y2, Y3)
	LOAD_T2_W((SI)(BX*1), 8(SI)(BX*1), (R8)(BX*1), 8(R8)(BX*1), Y2, Y3)
	INV_BFLY(Y6, Y7, Y12, Y11, Y2, Y3)
	STORE_SPLIT(DI, X4, Y4, X5, Y5)
	STORE_SPLIT(R13, X6, Y6, X7, Y7)
	ADDQ $128, R10
	ADDQ $128, CX
	EDGE_ADVANCE
	DECQ R9
	JNZ  invHeadLoop
	VZEROUPPER
	RET

// func fmaInvStep(p, w []uint64, wq []float64, h, t int, q, qinv float64)
//
// Inverse stage with h twiddles at w[h:], block half-length t ≥ 4; the
// a side is reduced.
TEXT ·fmaInvStep(SB), NOSPLIT, $0-104
	STEP_PROLOGUE(h+72(FP))
	VBROADCASTSD qinv+96(FP), Y10
	LEAQ (SI)(R9*8), SI
	LEAQ (R8)(R9*8), R8
	SHLQ $3, R10

invILoop:
	BCAST_W(0, SI, R8, Y12, Y11)
	LEAQ (DI)(R10*1), R13
	MOVQ R10, CX

invJLoop:
	VMOVUPD (DI), Y0
	VMOVUPD (R13), Y1
	INV_BFLY(Y0, Y1, Y12, Y11, Y2, Y3)
	REDUCE(Y0, Y3)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (R13)
	ADDQ $32, DI
	ADDQ $32, R13
	SUBQ $32, CX
	JNZ  invJLoop

	MOVQ R13, DI
	ADDQ $8, SI
	ADDQ $8, R8
	DECQ R9
	JNZ  invILoop
	VZEROUPPER
	RET

// func fmaInvStep2(p, w []uint64, wq []float64, h, t int, q, qinv float64)
//
// Inverse stages h and h/2, t the first one's block half-length (t ≥ 4):
// each block of 4t words is the quarters A B C D of t words. Stage h runs
// (A,B) under w[h+2i] and (C,D) under w[h+2i+1], then stage h/2 runs (A,C)
// and (B,D) under w[h/2+i], on the same four registers. Only A is reduced,
// once, at the end: the first stage's A and C sums and the second stage's B
// sum are left to grow, which the pass bound allows (an input below B gives
// at most 4B inside the pass and q + q·4B·2^-54 out of it; DESIGN.md
// "Vectorized kernels").
TEXT ·fmaInvStep2(SB), NOSPLIT, $0-104
	STEP_PROLOGUE(h+72(FP))
	VBROADCASTSD qinv+96(FP), Y10
	LEAQ (SI)(R9*8), R11
	LEAQ (R8)(R9*8), R12
	SHRQ $1, R9
	LEAQ (SI)(R9*8), SI
	LEAQ (R8)(R9*8), R8
	SHLQ $3, R10

inv2ILoop:
	BCAST_W(0, R11, R12, Y4, Y5)
	BCAST_W(8, R11, R12, Y6, Y7)
	BCAST_W(0, SI, R8, Y8, Y9)
	LEAQ (DI)(R10*2), R13
	MOVQ R10, CX

inv2JLoop:
	QUARTERS_LOAD
	INV_BFLY(Y0, Y1, Y4, Y5, Y11, Y12)
	INV_BFLY(Y2, Y3, Y6, Y7, Y11, Y12)
	INV_BFLY(Y0, Y2, Y8, Y9, Y11, Y12)
	REDUCE(Y0, Y12)
	INV_BFLY(Y1, Y3, Y8, Y9, Y11, Y12)
	QUARTERS_STORE
	SUBQ $32, CX
	JNZ  inv2JLoop

	LEAQ (R13)(R10*1), DI
	ADDQ $8, SI
	ADDQ $8, R8
	ADDQ $16, R11
	ADDQ $16, R12
	DECQ R9
	JNZ  inv2ILoop
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
