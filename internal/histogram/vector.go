package histogram

import (
	"fmt"

	"approxobj/internal/object"
	"approxobj/internal/prim"
	"approxobj/internal/satmath"
)

// Vector is the exact shared bucket-count vector one histogram shard is
// made of: an n-process grid of single-writer registers, one row per
// process and one column per bucket. Process p's additions accumulate in
// row p (so AddN is one register write once the row value is known), and
// a read sums each column over all rows — the classic collect, regular
// like every combined read in this repository. All counts saturate at
// MaxUint64.
type Vector struct {
	buckets int
	rows    [][]prim.Reg // [process][bucket], each row one dense arena
}

var _ object.Hist = (*Vector)(nil)

// NewVector creates a bucket-count vector with the given number of
// buckets over f's processes, all counts zero.
func NewVector(f *prim.Factory, buckets int) (*Vector, error) {
	if buckets < 1 {
		return nil, fmt.Errorf("histogram: need at least one bucket, got %d", buckets)
	}
	v := &Vector{buckets: buckets, rows: make([][]prim.Reg, f.N())}
	for p := range v.rows {
		v.rows[p] = f.RegRowDense(buckets)
	}
	return v, nil
}

// Buckets returns the number of buckets.
func (v *Vector) Buckets() int { return v.buckets }

// HistHandle binds process p to the vector.
func (v *Vector) HistHandle(p *prim.Proc) object.HistHandle {
	return &VectorHandle{v: v, p: p}
}

// VectorHandle is one process's view of the vector. It caches its own
// row's values (the row is single-writer, so the cache cannot go stale):
// the first addition to a bucket reads the register once — which also
// lets a re-created handle for a slot that has written before continue
// from the row's current counts — and every later addition is a single
// register write. The cache is allocated by the handle's first AddN: a
// handle that only reads (every handle of a shard but its home slot's)
// never carries it.
type VectorHandle struct {
	v     *Vector
	p     *prim.Proc
	own   []uint64 // nil until the first AddN
	known []bool
}

var _ object.HistHandle = (*VectorHandle)(nil)

// AddN adds d observations to bucket b. It panics if b is out of range,
// like indexing a slice out of bounds.
func (h *VectorHandle) AddN(b int, d uint64) {
	if d == 0 {
		return
	}
	if h.own == nil {
		h.own = make([]uint64, h.v.buckets)
		h.known = make([]bool, h.v.buckets)
	}
	r := &h.v.rows[h.p.ID()][b]
	if !h.known[b] {
		h.own[b] = r.Read(h.p)
		h.known[b] = true
	}
	h.own[b] = satmath.Add(h.own[b], d)
	r.Write(h.p, h.own[b])
}

// Read returns the per-bucket totals, summing each column over all
// process rows (saturating). The slice is fresh (owned by the caller).
func (h *VectorHandle) Read() []uint64 { return h.ReadInto(nil) }

// ReadInto is Read into a reused buffer: dst is grown (or allocated, if
// nil) to the bucket count, zeroed, and filled with the totals. The
// step count is identical to Read's.
func (h *VectorHandle) ReadInto(dst []uint64) []uint64 {
	dst = zeroed(dst, h.v.buckets)
	for _, row := range h.v.rows {
		for b := range row {
			dst[b] = satmath.Add(dst[b], row[b].Read(h.p))
		}
	}
	return dst
}

// zeroed returns dst resized to n and zero-filled, reusing its backing
// array when it is large enough.
func zeroed(dst []uint64, n int) []uint64 {
	if cap(dst) < n {
		return make([]uint64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = 0
	}
	return dst
}
