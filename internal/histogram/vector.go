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
// row p (so AddN is one register write: p's one handle caches the row),
// and a read sums each column over all rows — the classic collect, regular
// like every combined read in this repository. All counts saturate at
// MaxUint64. A row is built by its process's first addition; a process
// that never adds (a slot homed on another shard, a reader-only slot)
// never holds one, and reading its row still costs one step per bucket.
type Vector struct {
	buckets int
	rows    []prim.LazyRegRow // [process], each row one dense arena once built
}

var _ object.Hist = (*Vector)(nil)

// NewVector creates a bucket-count vector with the given number of
// buckets over f's processes, all counts zero.
func NewVector(f *prim.Factory, buckets int) (*Vector, error) {
	if buckets < 1 {
		return nil, fmt.Errorf("histogram: need at least one bucket, got %d", buckets)
	}
	return &Vector{buckets: buckets, rows: f.LazyRegRows(f.N(), buckets)}, nil
}

// Buckets returns the number of buckets.
func (v *Vector) Buckets() int { return v.buckets }

// HistHandle binds process p to the vector.
func (v *Vector) HistHandle(p *prim.Proc) object.HistHandle {
	return &VectorHandle{v: v, p: p}
}

// VectorHandle is one process's view of the vector. It caches its own
// row's values (the row is single-writer, so the cache cannot go stale),
// so every addition is a single register write. The handle's first AddN
// builds its row and allocates the cache: a handle that only reads (every
// handle of a shard but its home slot's) never carries either. Each
// process has one handle: a second handle for p starts its cache at zero
// and would overwrite the counts p's row already holds.
type VectorHandle struct {
	v   *Vector
	p   *prim.Proc
	row []prim.Reg // the process's own row; nil until the first AddN
	own []uint64
}

var _ object.HistHandle = (*VectorHandle)(nil)

// AddN adds d observations to bucket b. It panics if b is out of range,
// like indexing a slice out of bounds.
func (h *VectorHandle) AddN(b int, d uint64) {
	if d == 0 {
		return
	}
	if h.row == nil {
		h.row = h.v.rows[h.p.ID()].Build()
		h.own = make([]uint64, h.v.buckets)
	}
	h.own[b] = satmath.Add(h.own[b], d)
	h.row[b].Write(h.p, h.own[b])
}

// Read returns the per-bucket totals, summing each column over all
// process rows (saturating). The slice is fresh (owned by the caller).
func (h *VectorHandle) Read() []uint64 { return h.ReadInto(nil) }

// ReadInto is Read into a reused buffer: dst is grown (or allocated, if
// nil) to the bucket count, zeroed, and filled with the totals. The
// step count is identical to Read's: one read per register, n × buckets,
// whether or not a row is built.
func (h *VectorHandle) ReadInto(dst []uint64) []uint64 {
	return h.AddInto(zeroed(dst, h.v.buckets))
}

// AddInto adds the per-bucket totals onto acc (saturating), which must
// hold Buckets() counts, and returns it: the fold step of a combined
// read over several vectors, which needs no buffer of its own. Its
// reads and steps are ReadInto's.
func (h *VectorHandle) AddInto(acc []uint64) []uint64 {
	acc = acc[:h.v.buckets]
	for i := range h.v.rows {
		lr := &h.v.rows[i]
		if row := lr.Row(); row != nil {
			for b := range row {
				acc[b] = satmath.Add(acc[b], row[b].Read(h.p))
			}
		} else if !lr.ReadUnbuilt(h.p) {
			// A gated process reads register by register: the row may
			// be built and written while it waits at a gate.
			for b := range acc {
				acc[b] = satmath.Add(acc[b], lr.Read(h.p, b))
			}
		}
	}
	return acc
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
