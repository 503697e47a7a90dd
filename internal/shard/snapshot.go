package shard

import (
	"approxobj/internal/object"
	"approxobj/internal/prim"
	"approxobj/internal/snapshot"
)

// snapshotBackend is the snapshot's one backend: the wait-free
// single-writer atomic snapshot of Afek et al. (internal/snapshot) per
// shard. The per-component merge over shards is exact, because every
// component lives in exactly one shard; the plane makes an approximate
// backend (e.g. rounded components per Matias/Vitter/Young) a
// registration away.
var snapshotBackend = backend[object.Snapshot]{
	meta: meta{name: "exact-snapshot"},
	make: func(f *prim.Factory, _ uint64) (object.Snapshot, error) {
		return snapshot.New(f)
	},
}

// snapshotPolicy is the snapshot's row of the plane: reads merge the
// shards per component (each component lives in one shard, so nothing
// widens), and handles elide component updates (staleness is per
// component, so the Buffer term does not scale with n).
var snapshotPolicy = &policy[[]uint64]{
	name:   "per-component",
	buffer: componentElision,
}

// Snapshot is the sharded single-writer atomic snapshot: S shards whose
// scans are merged per component, with the plane's accessors. Component
// i is written only through handle i (single-writer); any handle scans
// all components. Its Bounds holds per component: sharding adds nothing
// (the merged scan is a scan of a partition), and Buffer is the
// component-elision headroom B-1, which scales with neither n nor S
// because components are disjoint across handles. Create handles with
// Handle; the zero value is not usable.
type Snapshot struct {
	*plane[object.Snapshot, object.SnapshotHandle, []uint64]
}

// NewSnapshot creates a sharded snapshot for n process slots (= n
// components), configured by cfg. All shards are built over one n-slot
// prim.Factory, so slot i is one process on every shard. Config.Batch
// is the component-elision window B: a handle elides updates in the
// window [flushed, flushed+B-1] above its last flushed component value,
// keeping the LATEST elided value locally until a move outside the
// window (in particular any downward move) or Flush publishes it, so a
// scanned component trails its true value by at most B-1 and never
// exceeds it.
func NewSnapshot(n int, cfg Config) (*Snapshot, error) {
	p, err := newPlane(n, 1, cfg, snapshotBackend, snapshotPolicy,
		func(o object.Snapshot, pr *prim.Proc) object.SnapshotHandle { return o.SnapshotHandle(pr) },
		object.SnapshotHandle.ScanInto, object.SnapshotHandle.MergeInto)
	if err != nil {
		return nil, err
	}
	return &Snapshot{p}, nil
}

// Handle binds process slot i (0 <= i < n) to the snapshot; a slot
// binds once (see coreAt), so the handle's elision anchor starts at the
// component's initial zero. The handle owns component i: its updates
// land in shard i mod S, and its scans merge all shards, read as
// process i. Like every handle in this repository it must be used by a
// single goroutine.
func (s *Snapshot) Handle(i int) *SnapshotHandle {
	h := &SnapshotHandle{handleCore: s.coreAt(i), slot: i}
	h.buf.flush = h.home.Update
	return h
}

// SnapshotHandle is one process's view of the sharded snapshot: the
// single writer of its component (Update) and a scanner of all
// components (Scan). Flush publishes an elided component update before
// quiescent scans.
type SnapshotHandle struct {
	handleCore[object.Snapshot, object.SnapshotHandle, []uint64]
	slot int
}

// Component returns the index of the component this handle writes.
func (h *SnapshotHandle) Component() int { return h.slot }

// Update sets this handle's component to v. With Config.Batch B > 1,
// updates in the window [flushed, flushed+B-1] above the last flushed
// value are elided — kept locally as the pending component value — while
// any move outside the window (including every downward move) is written
// through immediately, so scans never overstate the component.
func (h *SnapshotHandle) Update(v uint64) { h.buf.add(v) }

// Scan merges one scan of every shard per component. Each returned
// component is inside the envelope Snapshot.Bounds describes against its
// own true value, relative to the regularity window of the package
// comment. The slice is fresh (owned by the caller).
func (h *SnapshotHandle) Scan() []uint64 { return h.Read() }

// ScanInto is Scan into a reused buffer: dst is grown (or allocated, if
// nil) as needed and filled with the merged view. The first shard scans
// into dst and every later shard max-merges into it, so steady-state
// scans through one handle allocate nothing.
func (h *SnapshotHandle) ScanInto(dst []uint64) []uint64 { return h.ReadInto(dst) }
