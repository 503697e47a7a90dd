package approxobj

import (
	"fmt"

	"approxobj/internal/shard"
)

// This file is the public face of the backend plane: the table of
// registered object kinds that the spec layer reads for validation,
// defaults, and envelope composition, and that the registry reads to
// dispatch construction. Adding object family N+1 to the package means
// adding one row here (plus its builder and its internal/shard policy
// row) — not new switches in spec validation, registry dispatch, or the
// pool layer.

// instance is the kind-agnostic view of a built object — what the
// registry and the backend table program against, independent of the
// kind's handle types. Every public object family (*Counter,
// *MaxRegister, *Snapshot, *Histogram) implements it.
type instance interface {
	// Close stops the object's background resources — the epoch
	// rotator, when WithWindow is set. Idempotent; a no-op for objects
	// without any.
	Close()
	// snapshot reads the object's current value through the registry's
	// reserved snapshot slot (only registry-owned objects have one) and
	// returns it with the envelope that bounds it, the object's steps and
	// the distribution detail of histogram objects (nil for every scalar
	// kind). Registry.Snapshot fills in Name and Kind.
	snapshot() ObjectSnapshot
}

// objectCore is the state and accessor block every object family
// shares: the validated spec, the shard runtime (the cumulative plane
// object or the epoch ring, chosen once by initObject), the epoch ring
// again when windowed, the read cache, the slot pool of handles, and the
// registry snapshot handle. Each kind embeds it and adds only its handle
// types, its mutation and query surface, and its descriptor row.
type objectCore[H pooledHandle] struct {
	spec  Spec
	rt    shardRuntime
	ring  ringControl  // the epoch ring when windowed, else nil
	cache cacheControl // the read cache under WithReadCache, else nil
	slots slotPool[H]
	snap  H // registry snapshot handle (slot procs), else the zero H
}

// shardRuntime is what the public layer needs of an object's shard
// runtime, the cumulative plane object (*shard.Counter, ...) and the
// epoch ring (*shard.Window) alike.
type shardRuntime interface {
	Bounds() shard.Bounds
	BaseObjects() uint64
}

// ringControl is the lifecycle of a windowed object's epoch ring
// (*shard.Window).
type ringControl interface {
	Reset() error
	Close()
}

// initObject builds c's shard runtime and the state every kind shares
// over it. This is the one place the runtime is chosen — an epoch ring
// of mk's instances when the spec is windowed, a single instance
// otherwise — and the one place the read cache is built, over either
// runtime, so an object has at most one. plain and windowed adapt a
// slot's runtime handle to the kind's pooled handle type H; their read
// argument is the slot's read through the cache, nil when the object is
// uncached (the handle then reads through its runtime handle). A cached
// object's refreshes all run through the reserved refresh slot's
// runtime read under the cache's refresh lock, so its caller and
// snapshot slots never bind a reader.
func initObject[H pooledHandle, T shard.Epoch[E, V], E shard.EpochHandle[V], V any](
	c *objectCore[H], spec Spec, mk func() (T, error),
	plain func(h E, read func(V) V) H, windowed func(h *shard.WindowHandle[T, E, V], read func(V) V) H,
) error {
	var (
		bind        func(i int, read func(V) V) H // slot i's handle, read as given
		bindRefresh func() func(V) V              // binds the reserved refresh slot's runtime read
	)
	if spec.Windowed() {
		w, err := shard.NewWindow[T, E, V](spec.windowDur, spec.windowEpochs, mk)
		if err != nil {
			return err
		}
		c.rt, c.ring = w, w
		bind = func(i int, read func(V) V) H { return windowed(w.Handle(i), read) }
		bindRefresh = func() func(V) V { return w.Handle(spec.totalProcs() - 1).ReadInto }
	} else {
		o, err := mk()
		if err != nil {
			return err
		}
		c.rt = o
		bind = func(i int, read func(V) V) H { return plain(o.Handle(i), read) }
		bindRefresh = func() func(V) V { return o.Handle(spec.totalProcs() - 1).ReadInto }
	}
	c.spec = spec
	tel := instrumentObject(spec, c)
	slot := func(i int) H { return bind(i, nil) }
	if spec.readStale > 0 {
		// Slot i reads through the cache and refreshes inline through
		// the refresh slot's read. Its read is bound once, with its
		// handle, which keeps reads allocation-free (closures allocate)
		// and the refresh out of the cache structs, whose layout the
		// cached read path is tuned to.
		refresh := bindRefresh()
		rc := newReadCache[V](spec.readStale, tel)
		c.cache = rc
		slot = func(i int) H { return bind(i, func(dst V) V { return rc.readInto(dst, refresh, i) }) }
	}
	c.slots.init(spec.procs, slot)
	c.slots.tel = tel
	if spec.snapshotSlot {
		c.snap = slot(spec.procs)
	}
	return nil
}

// shardConfig translates a spec into the sharded runtime's
// configuration; each kind adds its own backend choice.
func shardConfig(s Spec) shard.Config {
	cfg := shard.Config{Shards: s.shards, Batch: s.batch}
	if s.tel != nil {
		cfg.Tel = s.tel.sink
	}
	return cfg
}

// handle returns process slot i's one handle (0 <= i < N), the same
// handle every lease of slot i gets, for callers managing slot
// assignment themselves; an out-of-range slot panics.
func (c *objectCore[H]) handle(i int) H {
	if i < 0 || i >= c.spec.procs {
		panic(fmt.Sprintf("approxobj: %s handle slot out of range", c.spec.kind))
	}
	return c.slots.handle(i)
}

// Spec returns the validated spec the object was built from.
func (c *objectCore[H]) Spec() Spec { return c.spec }

// N returns the number of process slots available to callers (for
// snapshots, also the number of components).
func (c *objectCore[H]) N() int { return c.spec.procs }

// Accuracy returns the accuracy selection.
func (c *objectCore[H]) Accuracy() Accuracy { return c.spec.acc }

// Shards returns the shard count.
func (c *objectCore[H]) Shards() int { return c.spec.shards }

// Batch returns the per-handle buffer size (1 means unbuffered): the
// increment buffer of counters, the write-elision window of max
// registers, the component-elision window of snapshots, the observation
// buffer of histograms.
func (c *objectCore[H]) Batch() uint64 { return uint64(c.spec.batch) }

// Bounds returns the object's accuracy envelope; the kind's type
// documentation says what each term means for it.
func (c *objectCore[H]) Bounds() Bounds { return scaledBounds(c.rt.Bounds(), c.spec) }

// BaseObjects returns the number of base objects (registers, TAS
// instances) the object has materialized across its shards — and, for
// windowed objects, its live epoch ring: its space cost in the paper's
// model. Lazily built structures count once a write first touches them,
// and reads build nothing, so a fresh unbounded max register reports
// only its top registers, one per shard, and grows by an epoch register
// when a write first reaches that epoch; a fresh histogram reports 0,
// and grows by one bucket row (Buckets registers) when a slot first
// writes its home shard; a fresh Multiplicative counter reports 0, and
// grows by its switches and one helping register per slot as
// increments announce on a shard. The frontier bench (E19) reports it
// to compare deterministic and randomized state at equal target error.
func (c *objectCore[H]) BaseObjects() uint64 { return c.rt.BaseObjects() }

// Close stops a windowed object's epoch rotator and waits for it to
// exit: the window freezes (no further aging; reads keep serving the
// frozen ring and Reset returns an error). Idempotent, and a no-op on
// cumulative objects, which run no goroutine, cached or not; handles
// stay usable afterwards.
func (c *objectCore[H]) Close() {
	if c.ring != nil {
		c.ring.Close()
	}
}

// Reset replaces the whole window with fresh epochs — the object
// restarts empty. Only windowed objects (WithWindow) support it; it is
// an error otherwise, and after Close. Reset is not atomic with
// concurrent mutations: a mutation racing it lands on either side,
// exactly like one racing a rotation.
func (c *objectCore[H]) Reset() error {
	if c.ring == nil {
		return fmt.Errorf("approxobj: Reset needs a windowed %s (WithWindow); this one is cumulative", c.spec.kind)
	}
	if err := c.ring.Reset(); err != nil {
		return err
	}
	if c.cache != nil {
		c.cache.invalidate()
	}
	return nil
}

// StepsRetired returns the cumulative shared-memory steps credited by
// released pooled handles. Steps of handles still held, or of manual
// Handle(i) handles, are not included (their counters are owned by the
// holding goroutine and cannot be read safely mid-flight).
func (c *objectCore[H]) StepsRetired() uint64 { return c.slots.retired.Load() }

// snapshotOf is the registry's view of v, a value read through the
// snapshot slot under envelope b: Steps adds the snapshot slot's steps,
// the read's included (none when cached: refreshes are the refresh
// slot's steps), to those of released pooled handles.
func (c *objectCore[H]) snapshotOf(v uint64, b Bounds) ObjectSnapshot {
	return ObjectSnapshot{Value: v, Bounds: b, Steps: c.StepsRetired() + c.snap.Steps()}
}

// kindDescriptor is one registration in the backend-plane table:
// everything the spec and registry layers need to know about an object
// kind — its text name, its policy row on the plane, which accuracy
// modes its backends implement (with any extra per-mode precondition),
// whether WithBound applies, and how to build it.
type kindDescriptor struct {
	kind   Kind
	name   string // Kind text name (String/MarshalText/ParseKind)
	plural string // for validation error messages

	// The kind's policy row on the plane, taken verbatim from
	// internal/shard (the single source of truth for combine/buffer
	// names and envelope scaling; Kinds exposes it for docs and tables).
	policy shard.PolicyRow

	// accuracies is the kind's row set in the accuracy plane: each
	// supported accuracy mode maps to an extra precondition check (nil =
	// none beyond the accuracy table's own parameter checks). A mode
	// absent from the map is rejected by validation, so accuracy support
	// is declared here — per kind, per row — not switched on anywhere.
	accuracies map[accMode]func(s Spec) error
	// allowBound reports whether WithBound applies to this kind.
	allowBound bool
	// boundLimitsBatch reports whether the kind's batch parameter is a
	// window in the value domain, so a batch at or past the bound would
	// swallow every legal write (max registers; histograms batch
	// observation counts, which the bound does not constrain).
	boundLimitsBatch bool

	// build constructs the object from a validated spec.
	build func(s Spec) (instance, error)
}

// kindTable is the backend-plane registration table, in presentation
// order. The descriptors live next to their object families
// (approxobj.go, snapshotobj.go).
var kindTable = []*kindDescriptor{
	counterDescriptor,
	maxRegisterDescriptor,
	snapshotDescriptor,
	histogramDescriptor,
}

// descriptorOf returns the table row for k, or nil for unknown kinds.
func descriptorOf(k Kind) *kindDescriptor {
	for _, d := range kindTable {
		if d.kind == k {
			return d
		}
	}
	return nil
}

// buildSpec dispatches construction of a validated spec through the
// backend table.
func buildSpec(s Spec) (instance, error) {
	d := descriptorOf(s.kind)
	if d == nil {
		return nil, fmt.Errorf("approxobj: invalid object kind %d", s.kind)
	}
	return d.build(s)
}

// KindPolicy is one row of the backend-plane policy table: how a
// registered object kind composes on the sharded runtime. It is the
// public, read-only view of the registration table — the source for the
// README's policy table.
type KindPolicy struct {
	// Kind identifies the object family.
	Kind Kind
	// Combine names how a read folds the per-shard reads ("sum", "max",
	// "per-component").
	Combine string
	// Buffer names the handle-local buffering discipline ("count
	// batching", "write elision", "component elision").
	Buffer string
	// Accuracies lists the accuracy classes the kind's backends
	// implement, in accuracy-table order (e.g. "exact", "additive",
	// "multiplicative", "randomized") — the exported view of the kind's
	// accuracy row set.
	Accuracies []string
}

// Kinds returns the policy table of every registered object kind, in
// presentation order.
func Kinds() []KindPolicy {
	out := make([]KindPolicy, 0, len(kindTable))
	for _, d := range kindTable {
		accs := make([]string, 0, len(d.accuracies))
		for _, r := range accuracyTable {
			if _, ok := d.accuracies[r.mode]; ok {
				accs = append(accs, r.name)
			}
		}
		out = append(out, KindPolicy{
			Kind:       d.kind,
			Combine:    d.policy.Combine,
			Buffer:     d.policy.Buffer,
			Accuracies: accs,
		})
	}
	return out
}
