// Package histogram implements the approximate histogram substrate of
// the repository: a deterministic rounded-bucket layout in the style of
// Matias, Vitter and Young's approximate data structures (values are
// rounded to bucket boundaries spaced by the multiplicative accuracy
// factor k, so every value is represented within a factor k), the exact
// per-shard bucket-count vector the sharded runtime builds on, and the
// query engine (count, sum, rank, quantile, CDF) that turns merged
// bucket counts into answers with documented deterministic error bounds.
//
// The split of responsibilities with internal/shard: this package knows
// which value lands in which bucket and how to answer queries over a
// bucket-count vector; internal/shard knows how to shard and buffer the
// vector. Neither widens the other's error: per-shard bucket counts are
// exact, so summing them over shards recovers the unsharded counts, and
// all approximation comes from (a) the bucket rounding (multiplicative
// in the value domain, factor k) and (b) handle-local buffering
// (additive in the rank domain, at most B-1 observations per handle).
package histogram

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// MaxExactBuckets caps the bucket-per-value table of exact (k = 1)
// layouts: each bucket costs one register per process slot per shard, so
// an unbounded exact table is not representable. Exported so the spec
// layer's defense-in-depth precondition stays equal to the layout's.
const MaxExactBuckets = 1 << 20

// Buckets is a rounded-bucket layout over the uint64 value domain:
// bucket 0 holds the value 0, and bucket j >= 1 holds the values in
// [k^(j-1), k^j - 1] — boundaries spaced by the accuracy factor k, so
// every value in a bucket is within a factor k of the bucket's lower
// boundary. The boundaries live in one immutable table per k, shared by
// every layout with that k: a value's bucket index is a table lookup by
// its bit length, and a bucket's bounds are loads. The degenerate k = 1
// layout is the exact bucket-per-value table over a bounded domain
// (Index(v) = v) and needs no table. The zero value is not usable; build
// layouts with NewBuckets.
type Buckets struct {
	t     *table // nil for the exact (k = 1) layout
	bound uint64 // observations must be < bound; 0 = full uint64 domain
	n     int
}

// table holds the boundaries of the rounded layout with factor k >= 2
// over the full uint64 domain. Since k >= 2, every bucket j >= 1 spans
// at least a doubling, so the values of one bit length (a doubling
// [2^(L-1), 2^L - 1]) straddle at most one bucket boundary: a value's
// bucket is first[its bit length] or the one after it.
type table struct {
	k     uint64
	hi    [65]uint64 // hi[j]: largest value of bucket j (the top one's is MaxUint64)
	first [65]uint8  // first[L]: bucket of the smallest value of bit length L
}

// tables interns one table per k for the life of the process. A process
// uses few factors, so a linear scan under a mutex, once per layout
// built, is all the lookup needs; a table is a pure function of its k
// and never changes, so sharing it is unobservable.
var tables struct {
	sync.Mutex
	list []*table
}

// tableFor returns the shared table of factor k, building it on first use.
func tableFor(k uint64) *table {
	tables.Lock()
	defer tables.Unlock()
	for _, t := range tables.list {
		if t.k == k {
			return t
		}
	}
	t := newTable(k)
	tables.list = append(tables.list, t)
	return t
}

// newTable builds the boundaries of factor k >= 2: bucket j >= 1 ends at
// k^j - 1, and the top bucket, whose upper boundary k^j would overflow,
// ends at MaxUint64 (k = 2 needs all 65 buckets).
func newTable(k uint64) *table {
	t := &table{k: k}
	j := 1
	for lo := uint64(1); lo <= math.MaxUint64/k; lo *= k {
		t.hi[j] = lo*k - 1
		j++
	}
	t.hi[j] = math.MaxUint64
	j = 0
	for l := 1; l <= 64; l++ {
		for t.hi[j] < uint64(1)<<(l-1) {
			j++
		}
		t.first[l] = uint8(j)
	}
	return t
}

// NewBuckets builds the layout for accuracy factor k (k = 1 exact,
// k >= 2 rounded) over the domain [0, bound) — bound 0 means the full
// uint64 domain. Exact layouts need a finite domain of at most 2^20
// values.
func NewBuckets(k, bound uint64) (Buckets, error) {
	if k < 1 {
		return Buckets{}, fmt.Errorf("histogram: accuracy factor must be >= 1, got %d", k)
	}
	if k == 1 {
		if bound == 0 {
			return Buckets{}, fmt.Errorf("histogram: exact bucketing needs a finite value domain (a bound)")
		}
		if bound > MaxExactBuckets {
			return Buckets{}, fmt.Errorf("histogram: exact bucketing over %d values exceeds the %d-bucket table limit", bound, MaxExactBuckets)
		}
		return Buckets{bound: bound, n: int(bound)}, nil
	}
	b := Buckets{t: tableFor(k), bound: bound}
	b.n = b.Index(b.domainMax()) + 1
	return b, nil
}

// K returns the accuracy factor the boundaries are spaced by.
func (b Buckets) K() uint64 {
	if b.t == nil {
		return 1
	}
	return b.t.k
}

// Bound returns the value domain bound (observations must be < Bound),
// or 0 for the full uint64 domain.
func (b Buckets) Bound() uint64 { return b.bound }

// N returns the number of buckets.
func (b Buckets) N() int { return b.n }

// domainMax is the largest observable value.
func (b Buckets) domainMax() uint64 {
	if b.bound > 0 {
		return b.bound - 1
	}
	return ^uint64(0)
}

// Contains reports whether v is inside the layout's value domain.
func (b Buckets) Contains(v uint64) bool { return b.bound == 0 || v < b.bound }

// Index returns the bucket of value v: 0 for 0, otherwise the unique j
// with k^(j-1) <= v <= k^j - 1. It costs one bit length, one table load
// and one compare: v's bucket is the first bucket of its bit length or,
// past that bucket's upper boundary, the next one.
func (b Buckets) Index(v uint64) int {
	t := b.t
	if t == nil {
		// Queries may probe past the bounded domain (only Observe
		// validates); they land in the top bucket. Without the clamp,
		// int(v) overflows for huge v and Rank/CDF would sum no buckets.
		if v >= b.bound {
			return int(b.bound) - 1
		}
		return int(v)
	}
	j := int(t.first[bits.Len64(v)])
	if v > t.hi[j] {
		j++
	}
	return j
}

// Lo returns the smallest value of bucket j (0 <= j < N) — the bucket's
// representative in query answers, so answers never overstate the value
// they stand for.
func (b Buckets) Lo(j int) uint64 {
	if b.t == nil || j == 0 {
		return uint64(j)
	}
	return b.t.hi[j-1] + 1
}

// Hi returns the largest value of bucket j (0 <= j < N), saturating at
// the top of the uint64 domain: every value the bucket stands for is in
// [Lo(j), Hi(j)], and Hi(j) <= k*Lo(j) - 1 — the factor-k rounding
// guarantee.
func (b Buckets) Hi(j int) uint64 {
	if b.t == nil {
		return uint64(j)
	}
	return b.t.hi[j]
}
