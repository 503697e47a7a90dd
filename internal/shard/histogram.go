package shard

import (
	"approxobj/internal/histogram"
	"approxobj/internal/object"
	"approxobj/internal/prim"
)

// bucketBackend builds one shard's exact bucket-count vector over
// `buckets` buckets and declares the value-domain rounding factor k of
// the layout the buckets were derived from (k = 1 for the exact
// bucket-per-value table). The vector itself is exact in the rank
// domain — all approximation in the value domain comes from the bucket
// layout the query layer rounds through — so the declared Mult is
// carried here only so plane.Bounds composes the full (value rounding,
// rank staleness) envelope in one place.
func bucketBackend(buckets int) backend[object.Hist] {
	return backend[object.Hist]{
		meta: meta{name: "buckets", mult: kIdentity},
		make: func(f *prim.Factory, _ uint64) (object.Hist, error) {
			return histogram.NewVector(f, buckets)
		},
	}
}

// histogramPolicy is the histogram's row of the plane: reads sum the
// shards per bucket (exact per-shard counts, so nothing widens), and
// handles batch whole observations (so the B-1 staleness scales with the
// handle count, like the counter's).
var histogramPolicy = &policy[[]uint64]{
	name:                  "per-bucket sum",
	buffer:                bucketBatching,
	bufferScalesWithProcs: true,
}

// Histogram is the sharded bucket-count vector: S shards of exact
// per-bucket counts, summed per bucket by readers, with the plane's
// accessors. It is the runtime substrate of the histogram family — the
// bucket layout and the query engine live in internal/histogram and the
// public layer; this type moves bucket additions and merged reads. Its
// Bounds carries the declared value-domain rounding factor k as Mult
// (sharding adds nothing — per-shard bucket counts are exact and sum
// over a partition) and the observation-batching headroom (B-1)*n as
// Buffer, in the rank domain. Create handles with Handle; the zero value
// is not usable.
type Histogram struct {
	*plane[object.Hist, object.HistHandle, []uint64]
	buckets int
}

// NewHistogram creates a sharded histogram over `buckets` buckets for n
// process slots with value-rounding factor k (declared, not applied —
// the caller's bucket layout already rounds), configured by cfg. All
// shards are built over one n-slot prim.Factory, so slot i is one
// process on every shard. Config.Batch is the per-handle observation buffer
// B: a handle accumulates per-bucket counts locally and flushes them all
// once B observations are pending.
func NewHistogram(n int, k uint64, buckets int, cfg Config) (*Histogram, error) {
	p, err := newPlane(n, k, cfg, bucketBackend(buckets), histogramPolicy,
		func(o object.Hist, pr *prim.Proc) object.HistHandle { return o.HistHandle(pr) },
		object.HistHandle.ReadInto, object.HistHandle.AddInto)
	if err != nil {
		return nil, err
	}
	return &Histogram{plane: p, buckets: buckets}, nil
}

// Buckets returns the number of buckets.
func (hg *Histogram) Buckets() int { return hg.buckets }

// Handle binds process slot i (0 <= i < n) to the histogram; a slot
// binds once (see coreAt). The handle adds to shard i mod S and reads
// all shards as process i. Like every handle in this repository it must
// be used by a single goroutine. Its observation buffer is allocated by
// its first AddN, so a slot that only reads never holds one.
func (hg *Histogram) Handle(i int) *HistHandle {
	h := &HistHandle{handleCore: hg.coreAt(i), buckets: hg.buckets}
	h.buf.bb = &h.bb
	h.buf.flushBucket = h.home.AddN
	return h
}

// HistHandle is one process's view of the sharded histogram: bucket
// additions (AddN) against its home shard, merged bucket reads
// (Buckets) over all shards, and Flush for draining the observation
// buffer before quiescent reads. It holds its slot's observation buffer
// once its first AddN has allocated it.
type HistHandle struct {
	handleCore[object.Hist, object.HistHandle, []uint64]
	bb      bucketBuf
	buckets int
}

// Add adds one observation to bucket b.
func (h *HistHandle) Add(b int) { h.AddN(b, 1) }

// AddN adds d observations to bucket b. With Config.Batch B > 1 the
// additions are buffered locally and flushed — every pending bucket at
// once — when B observations are pending.
func (h *HistHandle) AddN(b int, d uint64) {
	if h.bb.vec == nil {
		h.bb.vec = make([]uint64, h.buckets)
		h.bb.touched = make([]int, 0, h.buckets)
	}
	h.buf.addBucket(b, d)
}

// Buckets returns the merged per-bucket counts: one read of every
// shard, summed per bucket. Each bucket's combined count is inside the
// envelope Histogram.Bounds describes, relative to the regularity
// window of the package comment. The slice is fresh (owned by the
// caller); ReadInto reuses a buffer instead, allocating nothing in
// steady state.
func (h *HistHandle) Buckets() []uint64 { return h.Read() }
