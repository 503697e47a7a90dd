// Package satmath provides uint64 arithmetic saturating at MaxUint64,
// shared by the counter implementations and the shard runtime: approximate
// responses near the top of the range must clamp rather than wrap, since a
// wrapped response would violate the accuracy envelope.
package satmath

import (
	"math"
	"math/bits"
)

// Mul multiplies with saturation at MaxUint64. The full 128-bit product
// detects overflow without a divide.
func Mul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	if hi != 0 {
		return math.MaxUint64
	}
	return lo
}

// Add adds with saturation at MaxUint64.
func Add(a, b uint64) uint64 {
	if a > math.MaxUint64-b {
		return math.MaxUint64
	}
	return a + b
}

// SquareAtLeast reports whether k*k >= n over the naturals: the saturating
// counterpart of the k >= sqrt(n) precondition of the multiplicative
// counter, shared by the public spec validation and core.NewMultCounter so
// the two cannot drift.
func SquareAtLeast(k, n uint64) bool {
	return Mul(k, k) >= n
}

// Pow returns k^e with saturation at MaxUint64 (with the convention
// 0^0 = 1). It short-circuits as soon as the result can no longer change
// — k in {0, 1} is a fixed point after the first multiplication, and any
// k >= 2 saturates within 64 squarings — so the loop is O(min(e, 64))
// rather than O(e); Pow(1, math.MaxUint64) used to spin for 2^64
// iterations.
func Pow(k, e uint64) uint64 {
	if e == 0 {
		return 1
	}
	if k <= 1 {
		return k // 0^e = 0, 1^e = 1 for e >= 1
	}
	r := uint64(1)
	for ; e > 0; e-- {
		r = Mul(r, k)
		if r == math.MaxUint64 {
			return r
		}
	}
	return r
}
