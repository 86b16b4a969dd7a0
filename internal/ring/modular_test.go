package ring

import (
	"math/big"
	"testing"
	"testing/quick"
)

func testModuli(t *testing.T) []Modulus {
	t.Helper()
	qs := []uint64{
		97, 257, 7681, 12289,
		GenerateNTTPrimes(36, 13, 1)[0],
		GenerateNTTPrimes(55, 15, 1)[0],
		GenerateNTTPrimes(60, 16, 1)[0],
	}
	out := make([]Modulus, len(qs))
	for i, q := range qs {
		out[i] = NewModulus(q)
	}
	return out
}

func TestNewModulusConstants(t *testing.T) {
	for _, m := range testModuli(t) {
		q := new(big.Int).SetUint64(m.Q)
		want := new(big.Int).Lsh(big.NewInt(1), 128)
		want.Div(want, q)
		gotHi := new(big.Int).SetUint64(m.BRedHi)
		got := new(big.Int).Lsh(gotHi, 64)
		got.Add(got, new(big.Int).SetUint64(m.BRedLo))
		if want.Cmp(got) != 0 {
			t.Errorf("q=%d: Barrett constant mismatch: want %v got %v", m.Q, want, got)
		}
		// MRedQInv * q ≡ -1 mod 2^64
		if m.MRedQInv*m.Q != ^uint64(0) {
			t.Errorf("q=%d: Montgomery constant invalid", m.Q)
		}
		r2 := new(big.Int).Lsh(big.NewInt(1), 128)
		r2.Mod(r2, q)
		if r2.Uint64() != m.RSquare {
			t.Errorf("q=%d: RSquare mismatch", m.Q)
		}
	}
}

func TestNewModulusRange(t *testing.T) {
	for _, bad := range []uint64{0, 1, 1 << 61, 1 << 62} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewModulus(%d) should panic", bad)
				}
			}()
			NewModulus(bad)
		}()
	}
}

func TestAddSubNegMod(t *testing.T) {
	for _, m := range testModuli(t) {
		s := NewSampler(1)
		for i := 0; i < 200; i++ {
			a, b := s.UniformMod(m.Q), s.UniformMod(m.Q)
			if got, want := m.AddMod(a, b), (a+b)%m.Q; got != want {
				t.Fatalf("AddMod(%d,%d) mod %d = %d want %d", a, b, m.Q, got, want)
			}
			if got, want := m.SubMod(a, b), (a+m.Q-b)%m.Q; got != want {
				t.Fatalf("SubMod(%d,%d) mod %d = %d want %d", a, b, m.Q, got, want)
			}
		}
	}
}

func TestMulModAgainstBigInt(t *testing.T) {
	for _, m := range testModuli(t) {
		s := NewSampler(2)
		q := new(big.Int).SetUint64(m.Q)
		for i := 0; i < 500; i++ {
			a, b := s.UniformMod(m.Q), s.UniformMod(m.Q)
			want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
			want.Mod(want, q)
			if got := m.MulModBarrett(a, b); got != want.Uint64() {
				t.Fatalf("MulModBarrett(%d,%d) mod %d = %d want %v", a, b, m.Q, got, want)
			}
			if got := m.MulModMontgomery(a, b); got != want.Uint64() {
				t.Fatalf("MulModMontgomery(%d,%d) mod %d = %d want %v", a, b, m.Q, got, want)
			}
		}
	}
}

func TestMulModEdgeCases(t *testing.T) {
	for _, m := range testModuli(t) {
		cases := [][2]uint64{{0, 0}, {0, m.Q - 1}, {m.Q - 1, m.Q - 1}, {1, m.Q - 1}, {m.Q / 2, 2}}
		q := new(big.Int).SetUint64(m.Q)
		for _, c := range cases {
			want := new(big.Int).Mul(new(big.Int).SetUint64(c[0]), new(big.Int).SetUint64(c[1]))
			want.Mod(want, q)
			if got := m.MulModBarrett(c[0], c[1]); got != want.Uint64() {
				t.Errorf("q=%d MulModBarrett(%d,%d)=%d want %v", m.Q, c[0], c[1], got, want)
			}
		}
	}
}

func TestBarrettEqualsMontgomeryProperty(t *testing.T) {
	m := NewModulus(GenerateNTTPrimes(36, 13, 1)[0])
	f := func(a, b uint64) bool {
		a, b = a%m.Q, b%m.Q
		return m.MulModBarrett(a, b) == m.MulModMontgomery(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestShoupMul(t *testing.T) {
	for _, m := range testModuli(t) {
		s := NewSampler(3)
		for i := 0; i < 200; i++ {
			a, w := s.UniformMod(m.Q), s.UniformMod(m.Q)
			wS := m.ShoupPrecomp(w)
			if got, want := m.MulModShoup(a, w, wS), m.MulModBarrett(a, w); got != want {
				t.Fatalf("q=%d MulModShoup(%d,%d)=%d want %d", m.Q, a, w, got, want)
			}
		}
	}
}

func TestPowInvMod(t *testing.T) {
	for _, m := range testModuli(t) {
		s := NewSampler(4)
		for i := 0; i < 50; i++ {
			a := 1 + s.UniformMod(m.Q-1)
			inv := m.InvMod(a)
			if m.MulMod(a, inv) != 1 {
				t.Fatalf("q=%d: a·a^{-1} != 1 for a=%d", m.Q, a)
			}
		}
		if m.PowMod(3, 0) != 1 {
			t.Errorf("PowMod(3,0) != 1")
		}
		if got := m.PowMod(2, 10); got != m.Reduce(1024) {
			t.Errorf("PowMod(2,10)=%d want %d", got, m.Reduce(1024))
		}
	}
}

func TestMFormRoundTrip(t *testing.T) {
	m := NewModulus(GenerateNTTPrimes(55, 14, 1)[0])
	f := func(a uint64) bool {
		a %= m.Q
		return m.MRed(m.MForm(a), 1) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestIsPrime(t *testing.T) {
	primes := []uint64{2, 3, 5, 7, 11, 13, 97, 7681, 12289, 786433, 18446744073709551557}
	composites := []uint64{0, 1, 4, 6, 9, 15, 7683, 1<<36 + 1, 3215031751}
	for _, p := range primes {
		if !IsPrime(p) {
			t.Errorf("IsPrime(%d) = false, want true", p)
		}
	}
	for _, c := range composites {
		if IsPrime(c) {
			t.Errorf("IsPrime(%d) = true, want false", c)
		}
	}
}

func TestGenerateNTTPrimes(t *testing.T) {
	for _, tc := range []struct{ bits, logN, count int }{
		{36, 13, 8}, {55, 15, 5}, {45, 12, 4}, {60, 16, 3},
	} {
		ps := GenerateNTTPrimes(tc.bits, tc.logN, tc.count)
		if len(ps) != tc.count {
			t.Fatalf("want %d primes, got %d", tc.count, len(ps))
		}
		twoN := uint64(1) << (tc.logN + 1)
		seen := map[uint64]bool{}
		for _, p := range ps {
			if !IsPrime(p) {
				t.Errorf("%d is not prime", p)
			}
			if (p-1)%twoN != 0 {
				t.Errorf("%d is not ≡ 1 mod 2N", p)
			}
			if p >= 1<<tc.bits || p < 1<<(tc.bits-1) {
				t.Errorf("%d has wrong size for %d bits", p, tc.bits)
			}
			if seen[p] {
				t.Errorf("duplicate prime %d", p)
			}
			seen[p] = true
		}
	}
}

func TestGenerateNTTPrimesUpDisjoint(t *testing.T) {
	down := GenerateNTTPrimes(36, 13, 4)
	up := GenerateNTTPrimesUp(36, 13, 2)
	for _, u := range up {
		if u < 1<<36 {
			t.Errorf("upward prime %d below 2^36", u)
		}
		if (u-1)%(1<<14) != 0 {
			t.Errorf("%d not NTT friendly", u)
		}
		for _, d := range down {
			if u == d {
				t.Errorf("upward and downward scans overlap at %d", u)
			}
		}
	}
}

func TestPrimitiveRoot2N(t *testing.T) {
	for _, logN := range []int{4, 8, 11, 13} {
		q := GenerateNTTPrimes(36, logN, 1)[0]
		m := NewModulus(q)
		psi := PrimitiveRoot2N(q, logN)
		n := uint64(1) << logN
		if m.PowMod(psi, n) != q-1 {
			t.Errorf("logN=%d: psi^N != -1", logN)
		}
		if m.PowMod(psi, 2*n) != 1 {
			t.Errorf("logN=%d: psi^2N != 1", logN)
		}
	}
}

func TestCenteredRep(t *testing.T) {
	q := uint64(97)
	cases := map[uint64]int64{0: 0, 1: 1, 48: 48, 49: -48, 96: -1}
	for x, want := range cases {
		if got := CenteredRep(x, q); got != want {
			t.Errorf("CenteredRep(%d,%d)=%d want %d", x, q, got, want)
		}
	}
}
