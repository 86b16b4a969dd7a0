package ring

// MACDigitOuter adds the outer product of a key row and one digit of every
// word of x into acc, in wrap-around uint64 arithmetic:
//
//	acc[t·len(x) + l] += row[t] · (x[l] >> shift & mask)   for t < len(row), l < len(x)
//
// acc is row-major [len(row)][len(x)]: one row of len(x) sums per key word.
// Every sum is exact modulo 2^64 and so modulo any power of two — the LWE key
// switch's key modulus 2N·2^ScaleUpBits — whatever the magnitude of the key
// words; it is no modular kernel for a prime. This is the inner step of the
// key-major LWE key switch (rlwe.LWEKeySwitchKey.ExtractSwitchBatch): one key
// row serves the digits of every ciphertext in flight. The vector kernel
// broadcasts each key word against the digits of four words of x at a time;
// AVX2 has no 64×64-bit multiply, so the word is split into 32-bit halves and
// multiplied by the digit as two 32×32-bit products, which is why mask must be
// below 2^32. The scalar loop takes the lanes past the last whole group of
// four, and every lane under purego or HEAP_NOSIMD=1; both write the same
// words.
func MACDigitOuter(acc, row, x []uint64, shift uint, mask uint64) {
	m := len(x)
	if mask >= 1<<32 {
		panic("ring: MACDigitOuter digits must fit in 32 bits")
	}
	if len(acc) < len(row)*m {
		panic("ring: MACDigitOuter accumulator shorter than len(row)·len(x)")
	}
	l := 0
	if simdActive() {
		l = m &^ 3
		macDigitOuterAVX2(acc, row, x[:l], m, uint64(shift), mask)
	}
	if l == m {
		return
	}
	for t, r := range row {
		a := acc[t*m : (t+1)*m]
		for i := l; i < m; i++ {
			a[i] += r * (x[i] >> shift & mask)
		}
	}
}
