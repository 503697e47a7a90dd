package shard

import (
	"reflect"
	"testing"
)

// The buffer is the one piece of the plane every mutation crosses, so
// its policy boundaries are tested table-style here, in-package (the
// type is deliberately unexported): what each policy absorbs, what it
// writes through, and what Flush and Pending report at each edge. The
// scalar policies share one harness; bucketBatching, whose mutations
// are (bucket, count) pairs, has its own below.

// scalarStep is one operation against a scalar-policy buffer: an add
// (or a Flush when flush is true) and the expected observable state
// after it — the values written through to the home shard so far, and
// Pending's report.
type scalarStep struct {
	flush       bool
	v           uint64
	wantFlushed []uint64 // cumulative values passed to the flush func
	wantPending uint64
}

func TestBufferScalarPolicies(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy bufferPolicy
		batch  uint64
		steps  []scalarStep
	}{
		{
			// Count batching absorbs B-1 increments and publishes the
			// accumulated count on the Bth; Flush drains any remainder.
			name: "countBatching/accumulate-then-flush", policy: countBatching, batch: 3,
			steps: []scalarStep{
				{v: 1, wantPending: 1},
				{v: 1, wantPending: 2},
				{v: 1, wantFlushed: []uint64{3}}, // pending hits B: one bulk apply
				{v: 2, wantFlushed: []uint64{3}, wantPending: 2},
				{flush: true, wantFlushed: []uint64{3, 2}},
				{flush: true, wantFlushed: []uint64{3, 2}}, // idempotent when empty
			},
		},
		{
			// A single add of d >= B flushes immediately — the buffer
			// never holds more than B-1.
			name: "countBatching/bulk-add-crosses-batch", policy: countBatching, batch: 4,
			steps: []scalarStep{
				{v: 2, wantPending: 2},
				{v: 5, wantFlushed: []uint64{7}},
				{v: 4, wantFlushed: []uint64{7, 4}},
			},
		},
		{
			// Unbuffered (B = 1): every add writes through, nothing is
			// ever pending.
			name: "countBatching/unbuffered", policy: countBatching, batch: 1,
			steps: []scalarStep{
				{v: 1, wantFlushed: []uint64{1}},
				{v: 3, wantFlushed: []uint64{1, 3}},
				{flush: true, wantFlushed: []uint64{1, 3}},
			},
		},
		{
			// Write elision: values at or below the flushed one are
			// subsumed for free; values inside the (B-1)-window above it
			// stay local (maximum pending); the first value AT the window
			// edge writes through. The boundary pair is v = flushed+B-1
			// (the last elidable value) and v = flushed+B (the first
			// write-through).
			name: "writeElision/window-boundary", policy: writeElision, batch: 4,
			steps: []scalarStep{
				{v: 0, wantPending: 0},                           // subsumed: flushed already >= 0
				{v: 3, wantPending: 3},                           // elided: 3 - 0 < B
				{v: 2, wantPending: 3},                           // elided, maximum stays pending
				{v: 3, wantPending: 3},                           // elided: v == flushed+B-1, the window edge
				{v: 4, wantFlushed: []uint64{4}},                 // v - flushed == B: write through, window moves
				{v: 4, wantFlushed: []uint64{4}, wantPending: 0}, // subsumed by the new flushed value
				{v: 7, wantFlushed: []uint64{4}, wantPending: 7}, // elided: 7 == 4+B-1, new window's edge
				{v: 8, wantFlushed: []uint64{4, 8}},              // next window edge crossed
				{flush: true, wantFlushed: []uint64{4, 8}},
			},
		},
		{
			// Flush publishes the pending elided maximum and advances the
			// window — a later smaller value is then subsumed.
			name: "writeElision/flush-publishes-maximum", policy: writeElision, batch: 8,
			steps: []scalarStep{
				{v: 5, wantPending: 5},
				{v: 2, wantPending: 5},
				{flush: true, wantFlushed: []uint64{5}},
				{v: 5, wantFlushed: []uint64{5}, wantPending: 0}, // subsumed: flushed is now 5
				{v: 6, wantFlushed: []uint64{5}, wantPending: 6},
			},
		},
		{
			// Component elision keeps the LATEST value pending (last
			// write wins, unlike the max register's maximum), and any
			// downward move writes through immediately — a stale higher
			// value would overstate the component.
			name: "componentElision/latest-wins-downward-writes-through", policy: componentElision, batch: 4,
			steps: []scalarStep{
				{v: 3, wantPending: 3},           // elided: 3 - 0 < B
				{v: 4, wantFlushed: []uint64{4}}, // v - flushed == B: write through
				{v: 6, wantFlushed: []uint64{4}, wantPending: 6},
				{v: 5, wantFlushed: []uint64{4}, wantPending: 5}, // latest value wins, not highest
				{v: 7, wantFlushed: []uint64{4}, wantPending: 7}, // elided: v == flushed+B-1, the window edge
				{v: 2, wantFlushed: []uint64{4, 2}},              // downward vs flushed 4: always writes through
				{flush: true, wantFlushed: []uint64{4, 2}},
			},
		},
		{
			// Returning exactly to the flushed value cancels the pending
			// elision — the shared component is already correct.
			name: "componentElision/return-to-flushed-cancels", policy: componentElision, batch: 8,
			steps: []scalarStep{
				{v: 4, wantPending: 4},
				{v: 0, wantPending: 0},                           // back at flushed (0): pending superseded
				{flush: true},                                    // nothing dirty: no write
				{v: 7, wantPending: 7},                           // window edge 0+B-1
				{v: 8, wantFlushed: []uint64{8}},                 // first value past the edge
				{v: 8, wantFlushed: []uint64{8}, wantPending: 0}, // at flushed again: cancels, no new write
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var flushed []uint64
			b := buffer{policy: tc.policy, batch: tc.batch, flush: func(v uint64) { flushed = append(flushed, v) }}
			for i, s := range tc.steps {
				if s.flush {
					b.Flush()
				} else {
					b.add(s.v)
				}
				if !reflect.DeepEqual(flushed, s.wantFlushed) {
					t.Fatalf("step %d: flushed %v, want %v", i, flushed, s.wantFlushed)
				}
				if got := b.Pending(); got != s.wantPending {
					t.Fatalf("step %d: Pending() = %d, want %d", i, got, s.wantPending)
				}
			}
		})
	}
}

// bucketStep is one operation against a bucketBatching buffer.
type bucketStep struct {
	flush       bool
	bucket      int
	d           uint64
	wantFlushed map[int]uint64 // cumulative per-bucket counts written through
	wantPending uint64
}

func TestBufferBucketBatching(t *testing.T) {
	for _, tc := range []struct {
		name    string
		batch   uint64
		buckets int
		steps   []bucketStep
	}{
		{
			// The batch counts observations ACROSS buckets: three adds to
			// distinct buckets reach B together and flush every pending
			// bucket at once.
			name: "batch-counts-across-buckets", batch: 3, buckets: 4,
			steps: []bucketStep{
				{bucket: 0, d: 1, wantPending: 1},
				{bucket: 2, d: 1, wantPending: 2},
				{bucket: 3, d: 1, wantFlushed: map[int]uint64{0: 1, 2: 1, 3: 1}},
				// The touched list was reset by the flush: the next adds
				// start a fresh pending set, and the earlier buckets'
				// counts are not replayed.
				{bucket: 1, d: 1, wantPending: 1, wantFlushed: map[int]uint64{0: 1, 2: 1, 3: 1}},
				{bucket: 1, d: 1, wantPending: 2, wantFlushed: map[int]uint64{0: 1, 2: 1, 3: 1}},
				{bucket: 1, d: 1, wantFlushed: map[int]uint64{0: 1, 2: 1, 3: 1, 1: 3}},
			},
		},
		{
			// A bulk add of d >= B flushes immediately; d = 0 is a no-op
			// that must not mark the bucket touched (a later flush would
			// otherwise visit it for nothing).
			name: "bulk-and-zero-adds", batch: 4, buckets: 3,
			steps: []bucketStep{
				{bucket: 1, d: 0, wantPending: 0},
				{bucket: 1, d: 9, wantFlushed: map[int]uint64{1: 9}},
				{bucket: 0, d: 2, wantPending: 2, wantFlushed: map[int]uint64{1: 9}},
				{flush: true, wantFlushed: map[int]uint64{1: 9, 0: 2}},
				{flush: true, wantFlushed: map[int]uint64{1: 9, 0: 2}}, // idempotent when empty
			},
		},
		{
			// Repeated adds to one bucket accumulate in place (the bucket
			// is touched once, not once per add).
			name: "same-bucket-accumulates", batch: 5, buckets: 2,
			steps: []bucketStep{
				{bucket: 0, d: 2, wantPending: 2},
				{bucket: 0, d: 2, wantPending: 4},
				{bucket: 0, d: 2, wantFlushed: map[int]uint64{0: 6}},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			flushed := map[int]uint64{}
			b := buffer{
				policy: bucketBatching, batch: tc.batch,
				bb:          &bucketBuf{vec: make([]uint64, tc.buckets), touched: make([]int, 0, tc.buckets)},
				flushBucket: func(i int, d uint64) { flushed[i] += d },
			}
			for i, s := range tc.steps {
				if s.flush {
					b.Flush()
				} else {
					b.addBucket(s.bucket, s.d)
				}
				want := s.wantFlushed
				if want == nil {
					want = map[int]uint64{}
				}
				if !reflect.DeepEqual(flushed, want) {
					t.Fatalf("step %d: flushed %v, want %v", i, flushed, want)
				}
				if got := b.Pending(); got != s.wantPending {
					t.Fatalf("step %d: Pending() = %d, want %d", i, got, s.wantPending)
				}
				if b.bb.pending == 0 && len(b.bb.touched) != 0 {
					t.Fatalf("step %d: empty buffer still lists touched buckets %v", i, b.bb.touched)
				}
			}
		})
	}
}

// TestHistHandleLazyBuffer checks that a histogram handle's observation
// buffer is allocated by its first AddN: a handle that only reads and
// flushes holds none, and the first addition allocates it at the
// bucket count.
func TestHistHandleLazyBuffer(t *testing.T) {
	const buckets = 8
	hg, err := NewHistogram(2, 2, buckets, Config{Shards: 2, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := hg.Handle(0)
	h.Buckets()
	h.Flush()
	if h.bb.vec != nil || h.bb.touched != nil {
		t.Fatalf("a handle that only read and flushed holds a buffer: vec %d, touched %d", len(h.bb.vec), cap(h.bb.touched))
	}
	h.AddN(3, 2)
	if len(h.bb.vec) != buckets || cap(h.bb.touched) != buckets || h.buf.Pending() != 2 {
		t.Fatalf("after the first AddN: vec %d, touched cap %d, pending %d; want %d, %d, 2",
			len(h.bb.vec), cap(h.bb.touched), h.buf.Pending(), buckets, buckets)
	}
	h.Flush()
	if got := h.Buckets()[3]; got != 2 {
		t.Fatalf("bucket 3 reads %d after the flush, want 2", got)
	}
}
