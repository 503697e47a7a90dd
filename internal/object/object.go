// Package object defines the base-object interfaces of this repository —
// counters, max registers, bucket-count vectors and single-writer
// snapshots — and Bounds, the one accuracy envelope every object reports
// and every checker judges reads against.
//
// Objects are accessed through per-process handles: Handle(p) binds a
// process to the object and carries the persistent local variables the
// paper's algorithms require (e.g. last_i, lcounter_i, limit_i of
// Algorithm 1). A handle must only be used by the goroutine driving its
// process; the shared object itself may be accessed through any number of
// handles concurrently.
package object

import "approxobj/internal/prim"

// Counter is a shared counter object supporting CounterIncrement and
// CounterRead through per-process handles.
type Counter interface {
	// CounterHandle binds process p to the counter.
	CounterHandle(p *prim.Proc) CounterHandle
}

// CounterHandle is a process's view of a counter.
type CounterHandle interface {
	// Inc applies one CounterIncrement operation.
	Inc()
	// Read applies one CounterRead operation and returns its response.
	Read() uint64
}

// BulkCounterHandle is implemented by counter handles that can apply d
// increments in one operation more cheaply than d separate Incs (e.g. one
// leaf write and one path refresh in the AACH tree, or one announcement in
// the batched additive counter). IncN(d) must be linearizable as d
// consecutive Incs by the same process. Callers holding a plain
// CounterHandle may type-assert to use the fast path and fall back to a
// loop of Incs otherwise.
type BulkCounterHandle interface {
	CounterHandle
	// IncN applies d CounterIncrement operations at once.
	IncN(d uint64)
}

// MaxReg is a shared max-register object supporting Write and Read through
// per-process handles.
type MaxReg interface {
	// MaxRegHandle binds process p to the max register.
	MaxRegHandle(p *prim.Proc) MaxRegHandle
}

// MaxRegHandle is a process's view of a max register.
type MaxRegHandle interface {
	// Write records v; subsequent Reads return at least v (within the
	// object's accuracy guarantee).
	Write(v uint64)
	// Read returns (an approximation of) the maximum value written so far.
	Read() uint64
}

// Hist is a shared bucket-count vector object supporting AddN and Read
// through per-process handles: every process may add observations to any
// bucket, and a read returns the per-bucket totals. It is the per-shard
// substrate of the histogram family — the bucket layout (which value
// lands in which bucket) is decided by the layer above.
type Hist interface {
	// HistHandle binds process p to the bucket vector.
	HistHandle(p *prim.Proc) HistHandle
	// Buckets returns the number of buckets.
	Buckets() int
}

// HistHandle is a process's view of a bucket-count vector.
type HistHandle interface {
	// AddN adds d observations to bucket b, linearizable as d consecutive
	// single additions by the same process.
	AddN(b int, d uint64)
	// Read returns the per-bucket observation totals. The returned slice
	// is fresh (owned by the caller).
	Read() []uint64
	// ReadInto is Read with the totals written into dst (grown as
	// needed), so steady-state readers reuse one buffer instead of
	// allocating per read. It returns the filled slice; a nil dst
	// behaves like Read.
	ReadInto(dst []uint64) []uint64
	// AddInto adds the per-bucket totals onto acc, which must hold one
	// count per bucket, and returns it, taking ReadInto's steps: a
	// combined read over several vectors folds each into the caller's
	// buffer.
	AddInto(acc []uint64) []uint64
}

// Snapshot is a shared single-writer atomic snapshot object supporting
// Update and Scan through per-process handles: process p owns component
// p and is the only writer of it; a scan returns a coherent view of all
// components.
type Snapshot interface {
	// SnapshotHandle binds process p to the snapshot.
	SnapshotHandle(p *prim.Proc) SnapshotHandle
}

// SnapshotHandle is a process's view of a snapshot.
type SnapshotHandle interface {
	// Update sets this process's component to v.
	Update(v uint64)
	// Scan returns a view of all components. The returned slice is fresh
	// (owned by the caller).
	Scan() []uint64
	// ScanInto is Scan with the view written into dst (grown as needed),
	// so steady-state scanners reuse one buffer instead of allocating
	// per scan. It returns the filled slice; a nil dst behaves like
	// Scan.
	ScanInto(dst []uint64) []uint64
	// MergeInto raises each component of acc, which must hold one value
	// per component, to the value a scan sees, and returns it, taking
	// ScanInto's steps: a combined scan over several snapshots folds
	// each into the caller's buffer.
	MergeInto(acc []uint64) []uint64
}
