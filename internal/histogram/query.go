package histogram

import (
	"math"

	"approxobj/internal/satmath"
)

// This file is the query engine: it turns a bucket-count vector (the
// merged per-shard counts the sharded runtime produces) into histogram
// answers. Throughout, write A(x) for the true number of observations
// with value <= x, N for the true observation count, and U for the
// number of observations still parked in handle-local buffers (the
// Buffer term of the object's envelope — at most B-1 per handle). The
// counts passed in cover a sub-multiset of the true observations missing
// at most U of them, and every counted observation sits in the bucket
// its value rounds to, so each query's deterministic error bound
// decomposes into a value-domain factor k (bucket rounding) and a
// rank-domain slack U (buffering):
//
//	Count()     in [N-U, N]
//	Sum()       in [S_vis/k, S_vis] for the visible observations' sum
//	            S_vis (at least S - U*maxValue): answers never overstate
//	Rank(v)     in [A(v)-U, A(min(k*v, domainMax))]
//	Quantile(q) = some x with x <= y and k*x > y, where y is the value
//	            whose rank among the visible observations is
//	            ceil(q * Count())
//	CDF(v)      = Rank(v) / Count() from one consistent read
//
// At quiescence after every handle has flushed, U = 0 and the bounds
// collapse to pure bucket rounding (and for the exact k = 1 layout, to
// equality).

// Count returns the total number of counted observations (saturating).
func Count(counts []uint64) uint64 {
	var n uint64
	for _, c := range counts {
		n = satmath.Add(n, c)
	}
	return n
}

// Sum returns the sum of the counted observations, each rounded DOWN to
// its bucket's lower boundary (saturating): Sum never overstates the
// true sum of the counted observations and understates it by at most a
// factor k, since every value v in bucket j satisfies Lo(j) <= v < k*Lo(j)
// for j >= 1 (and is exactly 0 in bucket 0).
func Sum(b Buckets, counts []uint64) uint64 {
	var s uint64
	for j, c := range counts {
		s = satmath.Add(s, satmath.Mul(c, b.Lo(j)))
	}
	return s
}

// Rank returns the number of counted observations in buckets up to and
// including v's: an estimate of A(v) that counts every observation <= v
// (minus buffered ones) and may additionally count observations in
// (v, Hi(Index(v))] — values above v but within its bucket, hence below
// k*v. The deterministic bound: A(v) - U <= Rank(v) <= A(Hi(Index(v))),
// with Hi(Index(v)) <= min(k*v, domain max) for v >= 1 and = 0 for v = 0.
// Empty counts rank 0 without consulting the layout, so the zero
// Buckets of an empty snapshot is never indexed.
func Rank(b Buckets, counts []uint64, v uint64) uint64 {
	if len(counts) == 0 {
		return 0
	}
	j := b.Index(v)
	var r uint64
	for i := 0; i <= j && i < len(counts); i++ {
		r = satmath.Add(r, counts[i])
	}
	return r
}

// TargetRank is the rank Quantile targets for q over total counted
// observations: ceil(q * total), computed in float64, clamped to
// [1, total] (q = 0 is the minimum), or 0 when the histogram is empty.
// The clamp to total happens in the float domain: float64(total) rounds
// (up to 2^64 for totals near MaxUint64, past the uint64 range), so any
// product at or above it is the maximum. Exported so checkers mirror the
// exact rank convention instead of re-deriving it.
func TargetRank(q float64, total uint64) uint64 {
	if total == 0 {
		return 0
	}
	x := math.Ceil(q * float64(total))
	if x >= float64(total) {
		return total
	}
	if x < 1 {
		return 1
	}
	return uint64(x)
}

// Quantile returns the q-quantile of the counted observations, rounded
// DOWN to its bucket's lower boundary: the lower boundary x of the first
// bucket whose cumulative count reaches TargetRank(q, Count()). The
// value y of that rank among the counted observations lives in x's
// bucket, so x <= y and k*x > y — a one-sided multiplicative value
// error of k. An empty histogram returns 0. Quantile panics if q is not
// in [0, 1] (like indexing out of range, a caller bug).
func Quantile(b Buckets, counts []uint64, q float64) uint64 {
	if math.IsNaN(q) || q < 0 || q > 1 {
		panic("histogram: quantile q out of range [0, 1]")
	}
	total := Count(counts)
	if total == 0 {
		return 0
	}
	r := TargetRank(q, total)
	var cum uint64
	for j, c := range counts {
		cum = satmath.Add(cum, c)
		if cum >= r {
			return b.Lo(j)
		}
	}
	return b.Lo(len(counts) - 1) // unreachable: cum reaches total
}

// CDF returns Rank(v)/Count over one consistent counts vector: the
// fraction of counted observations <= Hi(Index(v)). An empty histogram
// returns 0.
func CDF(b Buckets, counts []uint64, v uint64) float64 {
	total := Count(counts)
	if total == 0 {
		return 0
	}
	return float64(Rank(b, counts, v)) / float64(total)
}
