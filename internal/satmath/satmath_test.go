package satmath_test

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"time"

	"approxobj/internal/satmath"
)

func TestMul(t *testing.T) {
	for _, tc := range []struct{ a, b, want uint64 }{
		{0, 0, 0},
		{0, math.MaxUint64, 0},
		{1, math.MaxUint64, math.MaxUint64},
		{3, 7, 21},
		{1 << 32, 1 << 32, math.MaxUint64},
		{math.MaxUint64, 2, math.MaxUint64},
	} {
		if got := satmath.Mul(tc.a, tc.b); got != tc.want {
			t.Errorf("Mul(%d, %d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestMulMatchesBig checks Mul against the exact math/big product,
// clamped to MaxUint64, on every pair of edge operands around zero, the
// 32-bit halves ((2^32-1)(2^32+1) is exactly MaxUint64), the top bit and
// the ceiling, plus random pairs.
func TestMulMatchesBig(t *testing.T) {
	edges := []uint64{0, 1, 2, 3, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<63 - 1, 1 << 63,
		math.MaxUint64 - 1, math.MaxUint64}
	rng := rand.New(rand.NewSource(3))
	for range 100 {
		edges = append(edges, rng.Uint64()>>rng.Intn(64))
	}
	limit := new(big.Int).SetUint64(math.MaxUint64)
	for _, a := range edges {
		for _, b := range edges {
			want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
			if want.Cmp(limit) > 0 {
				want = limit
			}
			if got := satmath.Mul(a, b); got != want.Uint64() {
				t.Fatalf("Mul(%d, %d) = %d, want %d", a, b, got, want.Uint64())
			}
		}
	}
}

func TestAdd(t *testing.T) {
	for _, tc := range []struct{ a, b, want uint64 }{
		{0, 0, 0},
		{1, 2, 3},
		{math.MaxUint64, 0, math.MaxUint64},
		{math.MaxUint64, 1, math.MaxUint64},
		{math.MaxUint64 - 1, 1, math.MaxUint64},
	} {
		if got := satmath.Add(tc.a, tc.b); got != tc.want {
			t.Errorf("Add(%d, %d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestPow covers the fixed points (k = 0, k = 1) that used to make the
// loop run e times — Pow(1, MaxUint64) effectively hung — plus the
// saturating and ordinary cases.
func TestPow(t *testing.T) {
	for _, tc := range []struct{ k, e, want uint64 }{
		{0, 0, 1}, // 0^0 = 1 by convention
		{0, 1, 0},
		{0, math.MaxUint64, 0},
		{1, 0, 1},
		{1, 1, 1},
		{1, math.MaxUint64, 1},
		{2, 0, 1},
		{2, 10, 1024},
		{3, 4, 81},
		{2, 63, 1 << 63},
		{2, 64, math.MaxUint64},               // exact 2^64 overflows: saturate
		{2, math.MaxUint64, math.MaxUint64},   // deep saturation terminates fast
		{math.MaxUint64, 1, math.MaxUint64},   // k itself at the ceiling
		{math.MaxUint64, 2, math.MaxUint64},   // saturates
		{10, 19, 10_000_000_000_000_000_000},  // largest power of 10 in range
		{10, 20, math.MaxUint64},              // next one saturates
		{1 << 32, 2, math.MaxUint64},          // 2^64 exactly: saturate
		{6074000999, 2, math.MaxUint64},       // just above sqrt(MaxUint64)
		{4294967295, 2, 18446744065119617025}, // just below: exact
		{7, 3, 343},
	} {
		done := make(chan uint64, 1)
		go func() { done <- satmath.Pow(tc.k, tc.e) }()
		select {
		case got := <-done:
			if got != tc.want {
				t.Errorf("Pow(%d, %d) = %d, want %d", tc.k, tc.e, got, tc.want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Pow(%d, %d) did not terminate", tc.k, tc.e)
		}
	}
}

func TestSquareAtLeast(t *testing.T) {
	for _, tc := range []struct {
		k, n uint64
		want bool
	}{
		{2, 4, true},
		{2, 5, false},
		{1, 1, true},
		{0, 0, true},
		{0, 1, false},
		{1 << 32, math.MaxUint64, true}, // k*k saturates: treated as +inf
		{3, 9, true},
		{3, 10, false},
	} {
		if got := satmath.SquareAtLeast(tc.k, tc.n); got != tc.want {
			t.Errorf("SquareAtLeast(%d, %d) = %v, want %v", tc.k, tc.n, got, tc.want)
		}
	}
}
