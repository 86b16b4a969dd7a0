// Lane-wise modular arithmetic on exact integer-valued doubles, the building
// blocks of the FMA kernels (ntt_amd64.s, vec_amd64.s). A residue rides a
// 64-bit lane as a double whose value is an integer of magnitude below 2^51;
// every operation below either is exact on such values or rounds on purpose
// to an integer-valued quotient estimate. DESIGN.md "Vectorized kernels"
// carries the bound proof; ring.fmaFits is the predicate that keeps every
// modulus and transform handed to these kernels inside it. The kernels assume
// MXCSR round-to-nearest, Go's default.
//
// Pinned registers, loaded by FMA_CONSTS: Y15 = q, Y14 = 1.5·2^52 (adding and
// subtracting it rounds a double below 2^51 in magnitude to the nearest
// integer), Y13 = 2^52 (its bit pattern 0x4330000000000000 is the exponent of
// every integer in [2^52, 2^53), which is how words enter and leave the
// double domain). CANON also reads a zero in Y9, REDUCE 1/q in Y10.

#define FMA_CONSTS(QARG) \
	VBROADCASTSD QARG, Y15; \
	MOVQ $0x4338000000000000, AX; \
	VMOVQ AX, X14; \
	VBROADCASTSD X14, Y14; \
	MOVQ $0x4330000000000000, AX; \
	VMOVQ AX, X13; \
	VBROADCASTSD X13, Y13

// TOF(X): canonical words x < 2^52 to the doubles x: set the bits of 2^52
// under x, then subtract 2^52. Exact.
#define TOF(X) \
	VPOR  Y13, X, X; \
	VSUBPD Y13, X, X

// MULW(V, W, WQ, R, K): R = V·W − k·q with k = round(V·WQ), for a fixed
// operand W < q with WQ = W/q rounded. h = V·W rounds; l = V·W − h is exact
// (FMA); h − k·q is an exact integer below 2^53, so R ≡ V·W (mod q) with
// |R| ≤ q/2 + q·|V|·2^-54. Clobbers V and K.
#define MULW(V, W, WQ, R, K) \
	VMULPD       W, V, R; \
	VMOVAPD      Y14, K; \
	VFMADD231PD  WQ, V, K; \
	VFMSUB213PD  R, W, V; \
	VSUBPD       Y14, K, K; \
	VFNMADD231PD Y15, K, R; \
	VADDPD       V, R, R

// REDUCE(X, K): X −= round(X/q)·q, which leaves at most q/2 + |X|·2^-53 in
// magnitude (|X| the input's). Clobbers K.
#define REDUCE(X, K) \
	VMOVAPD      Y14, K; \
	VFMADD231PD  Y10, X, K; \
	VSUBPD       Y14, K, K; \
	VFNMADD231PD Y15, K, X

// CANON(X, T): an integer X in (−q, q) to the canonical word X mod q: add q
// where X < 0 (an ordered compare, so −0 stays 0), then add 2^52 and clear
// its exponent bits. Clobbers T.
#define CANON(X, T) \
	VCMPPD $1, Y9, X, T; \
	VANDPD Y15, T, T; \
	VADDPD T, X, X; \
	VADDPD Y13, X, X; \
	VXORPD Y13, X, X
