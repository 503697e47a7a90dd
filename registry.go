package approxobj

import (
	"fmt"
	"sync"
)

// Registry is a set of named objects, in the style of a metrics registry:
// the per-kind getters (Counter, MaxRegister, SnapshotObject) are
// get-or-create (a second registration of the same name with the same
// spec returns the existing object; a conflicting spec is an error), and
// Snapshot reads every object's current value, accuracy envelope, and
// cumulative steps in one call, for telemetry and export scenarios. The
// registry itself is kind-agnostic: it dispatches through the
// backend-plane table, so a newly registered kind needs only a typed
// getter.
//
// Every registry-owned object reserves one process slot beyond
// WithProcs(n) for the registry's own snapshot reads, so Snapshot never
// competes with worker goroutines for pool slots (and cannot deadlock
// against workers holding handles for their lifetime). Spec validation
// accounts for the extra slot — e.g. a Multiplicative(k) counter
// registered with WithProcs(n) needs k >= sqrt(n+1).
//
// All methods are safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*regEntry
	order   []string
}

type regEntry struct {
	name string
	spec Spec
	obj  instance

	// snapMu serializes reads of obj's reserved snapshot handle, which —
	// like every handle — is single-goroutine. Snapshot reads objects
	// OUTSIDE the registry lock (a slow multi-shard read must not block
	// registration or snapshots of other objects), so the exclusivity the
	// registry lock used to provide lives here, per object.
	snapMu sync.Mutex
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*regEntry)}
}

// getOrCreate is the kind-agnostic registration path: it validates the
// spec (with the reserved snapshot slot appended), resolves name
// collisions, and builds the object through the backend table.
func (r *Registry) getOrCreate(kind Kind, name string, opts []Option) (instance, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	spec, err := newSpec(kind, append(opts[:len(opts):len(opts)], withSnapshotSlot()))
	if err != nil {
		return nil, err
	}
	if e, ok := r.entries[name]; ok {
		if e.spec.kind != kind {
			return nil, fmt.Errorf("approxobj: registry name %q is a %s, not a %s", name, e.spec.kind, kind)
		}
		if !e.spec.sameObject(spec) {
			return nil, fmt.Errorf("approxobj: registry name %q already registered as %s, conflicting with %s", name, e.spec, spec)
		}
		return e.obj, nil
	}
	obj, err := buildSpec(spec)
	if err != nil {
		return nil, err
	}
	r.entries[name] = &regEntry{name: name, spec: spec, obj: obj}
	r.order = append(r.order, name)
	return obj, nil
}

// Counter returns the named counter, creating it from the options on
// first registration. Re-registering an existing name with an equivalent
// spec returns the existing counter; a different spec, or a name held by
// another kind, is an error.
func (r *Registry) Counter(name string, opts ...Option) (*Counter, error) {
	obj, err := r.getOrCreate(KindCounter, name, opts)
	if err != nil {
		return nil, err
	}
	return obj.(*Counter), nil
}

// MaxRegister returns the named max register, creating it from the
// options on first registration, with the same get-or-create semantics as
// Counter.
func (r *Registry) MaxRegister(name string, opts ...Option) (*MaxRegister, error) {
	obj, err := r.getOrCreate(KindMaxRegister, name, opts)
	if err != nil {
		return nil, err
	}
	return obj.(*MaxRegister), nil
}

// SnapshotObject returns the named single-writer snapshot, creating it
// from the options on first registration, with the same get-or-create
// semantics as Counter. (The name avoids colliding with Snapshot, the
// registry-wide telemetry read.)
func (r *Registry) SnapshotObject(name string, opts ...Option) (*Snapshot, error) {
	obj, err := r.getOrCreate(KindSnapshot, name, opts)
	if err != nil {
		return nil, err
	}
	return obj.(*Snapshot), nil
}

// HistogramObject returns the named histogram, creating it from the
// options on first registration, with the same get-or-create semantics
// as Counter. The registry's Snapshot exports the histogram's
// observation count as its Value (with a rank-domain-only envelope, so
// the (Value, Bounds) pair stays self-consistent); query the
// distribution itself — Quantile, Rank, CDF — through the returned
// object's pooled handles.
func (r *Registry) HistogramObject(name string, opts ...Option) (*Histogram, error) {
	obj, err := r.getOrCreate(KindHistogram, name, opts)
	if err != nil {
		return nil, err
	}
	return obj.(*Histogram), nil
}

// Names returns the registered names in registration order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.order...)
}

// ObjectSnapshot is one object's state at snapshot time.
type ObjectSnapshot struct {
	// Name and Kind identify the object.
	Name string
	Kind Kind
	// Value is the object's current reading, taken through the registry's
	// reserved snapshot slot: the (approximate) count for counters, the
	// (approximate) maximum for max registers, the saturating sum of the
	// components for snapshots. It obeys Bounds against the true value
	// (mutations still parked in unreleased handles — batched increments,
	// elided writes — fall under the Buffer term).
	Value uint64
	// Bounds is the envelope that bounds Value. For counters and max
	// registers it is the object's own envelope; for snapshots — whose
	// per-object Bounds applies per component — the Buffer term is
	// widened to (B-1)·n, since every written component of the summed
	// Value can trail by B-1.
	Bounds Bounds
	// Steps is the cumulative shared-memory step count attributed to the
	// object: steps credited by released pooled handles plus the
	// registry's own snapshot reads. Steps of handles currently held (and
	// of manual Handle(i) handles) are not included. A cached object's
	// refreshes are charged to its reserved refresh slot, and Steps does
	// not include them: its snapshot reads and pooled reads then add no
	// steps.
	Steps uint64
	// Histogram carries the distribution detail of histogram objects (the
	// bucket read Value comes from, so Value equals Histogram.Count), nil
	// for every scalar kind. Exposition
	// formats (see package expose) render it as a cumulative bucket
	// series.
	Histogram *HistogramDetail
}

// HistogramBucket is one cumulative bucket of a HistogramDetail:
// CumulativeCount observations had values at most UpperBound. The last
// bucket of an unbounded layout saturates UpperBound at the maximum
// uint64 (rendered as +Inf by exposition formats).
type HistogramBucket struct {
	UpperBound      uint64
	CumulativeCount uint64
}

// HistogramDetail is the distribution detail the registry exports for
// histogram objects: cumulative counts at the upper boundary of each
// occupied bucket (unoccupied buckets are elided — they add no
// information to a cumulative series), plus the total observation count
// and the bucket-rounded observation sum. All values come from one
// consistent bucket read and obey the object's Bounds (the Buffer term
// in the rank domain, Mult in the value domain).
type HistogramDetail struct {
	Buckets []HistogramBucket
	Count   uint64
	Sum     uint64
	// Mult is the value-domain rounding factor k of the bucket layout
	// (1 for exact layouts). ObjectSnapshot.Bounds narrows Mult to 1 —
	// the exported Value is a count, which rounding never skews — so the
	// detail carries the factor that does apply to the bucket
	// boundaries.
	Mult uint64
}

// Snapshot reads every registered object — value, envelope, cumulative
// steps — in registration order. The entry list is captured atomically
// with respect to registration (so the result is a consistent roster),
// but the object reads happen OUTSIDE the registry lock: one slow
// multi-shard read does not block registration or other snapshots,
// which serialize only per object (on the object's reserved snapshot
// handle). Each value is an ordinary concurrent read: it lands inside
// the object's envelope relative to the operations linearized around
// it. Objects registered after the roster was captured are not
// included.
func (r *Registry) Snapshot() []ObjectSnapshot {
	r.mu.Lock()
	entries := make([]*regEntry, 0, len(r.order))
	for _, name := range r.order {
		entries = append(entries, r.entries[name])
	}
	r.mu.Unlock()

	out := make([]ObjectSnapshot, 0, len(entries))
	for _, e := range entries {
		e.snapMu.Lock()
		snap := e.obj.snapshot()
		e.snapMu.Unlock()
		snap.Name, snap.Kind = e.name, e.spec.kind
		out = append(out, snap)
	}
	return out
}

// Close stops the background resources of every registered object: the
// epoch rotators of objects registered with WithWindow. Close leaves no
// background goroutine running and is idempotent; the registry and its
// objects stay usable afterwards — Snapshot and handle reads return the
// last value (windowed objects freeze at their final ring, so their
// values stop aging out and Reset returns an error). Mutations through
// handles also remain safe — a frozen window still accepts writes into
// its final epochs, useful for draining in-flight workers during
// shutdown.
func (r *Registry) Close() {
	r.mu.Lock()
	entries := make([]*regEntry, 0, len(r.order))
	for _, name := range r.order {
		entries = append(entries, r.entries[name])
	}
	r.mu.Unlock()
	for _, e := range entries {
		e.obj.Close()
	}
}
