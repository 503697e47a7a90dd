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
	// Spec returns the validated spec the object was built from.
	Spec() Spec
	// Bounds returns the object's accuracy envelope.
	Bounds() Bounds
	// StepsRetired returns the steps credited by released pooled handles.
	StepsRetired() uint64
	// Close stops the object's background resources — the read cache's
	// combiner goroutine, when WithReadCache is set. Idempotent; a no-op
	// for objects without any.
	Close()
	// snapshotValue reads the object's current value through the
	// registry's reserved snapshot slot (only registry-owned objects
	// have one).
	snapshotValue() uint64
	// snapshotBounds returns the envelope that bounds snapshotValue —
	// Bounds itself for kinds whose exported value is a single read, but
	// widened for kinds whose exported value aggregates (a snapshot's
	// component sum can trail by Buffer per written component).
	snapshotBounds() Bounds
	// snapshotSteps returns the steps the snapshot slot has taken.
	snapshotSteps() uint64
	// snapshotDetail returns the distribution detail of histogram
	// objects (one consistent bucket read, for exposition formats — see
	// package expose), nil for every scalar kind.
	snapshotDetail() *HistogramDetail
}

// objectCore is the state and accessor block every object family
// shares: the validated spec, the shard runtime (the cumulative plane
// object or the epoch ring, chosen once by initObject), the slot pool of
// runtime handles, and the registry snapshot handle. Each kind embeds it
// and adds only its handle types, its mutation and query surface, and
// its descriptor row.
type objectCore[H pooledHandle] struct {
	spec  Spec
	rt    shardRuntime
	reset func() error // the ring's Reset, or refuseReset when cumulative
	slots slotPool[H]
	snap  H // registry snapshot handle (slot procs), else the zero H
}

// shardRuntime is what the public layer needs of an object's shard
// runtime, the cumulative plane object (*shard.Counter, ...) and the
// epoch ring (*shard.Window) alike.
type shardRuntime interface {
	Bounds() shard.Bounds
	BaseObjects() uint64
	Close()
}

// initObject builds c's shard runtime and the state every kind shares
// over it. This is the one place the runtime is chosen: an epoch ring of
// mk's instances when the spec is windowed, a single instance otherwise.
// plain and windowed adapt the chosen runtime's slot handles to the
// kind's pooled handle type H.
func initObject[H pooledHandle, T shard.Epoch[E, V], E shard.EpochHandle[V], V any](
	c *objectCore[H], spec Spec, mk func() (T, error),
	plain func(E) H, windowed func(*shard.WindowHandle[T, E, V]) H,
) error {
	var bind func(int) H
	if spec.Windowed() {
		w, err := shard.NewWindow[T, E, V](spec.windowDur, spec.windowEpochs, mk)
		if err != nil {
			return err
		}
		c.rt, c.reset = w, w.Reset
		bind = func(i int) H { return windowed(w.Handle(i)) }
	} else {
		o, err := mk()
		if err != nil {
			return err
		}
		c.rt, c.reset = o, c.refuseReset
		bind = func(i int) H { return plain(o.Handle(i)) }
	}
	c.spec = spec
	c.slots.init(spec.procs, bind)
	instrumentObject(spec, c.slots.free, c.BaseObjects)
	if spec.snapshotSlot {
		c.snap = bind(spec.procs)
	}
	return nil
}

// shardConfig translates a spec into the sharded runtime's
// configuration; each kind adds its own backend choice.
func shardConfig(s Spec) shard.Config {
	cfg := shard.Config{Shards: s.shards, Batch: s.batch, ReadStale: s.readStale}
	if s.tel != nil {
		cfg.Tel = s.tel.sink
	}
	return cfg
}

// refuseReset is Reset on a cumulative object.
func (c *objectCore[H]) refuseReset() error {
	return fmt.Errorf("approxobj: Reset needs a windowed %s (WithWindow); this one is cumulative", c.spec.kind)
}

// handle binds process slot i (0 <= i < N) for callers managing slot
// assignment themselves; an out-of-range slot panics.
func (c *objectCore[H]) handle(i int) H {
	if i < 0 || i >= c.spec.procs {
		panic(fmt.Sprintf("approxobj: %s handle slot out of range", c.spec.kind))
	}
	return c.slots.mk(i)
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
// model. Lazily built structures count once an operation first touches
// them, so a fresh unbounded max register reports only its top
// registers, one per shard, and grows by an epoch register when a write
// first reaches that epoch. The frontier bench (E19) reports it to
// compare deterministic and randomized state at equal target error.
func (c *objectCore[H]) BaseObjects() uint64 { return c.rt.BaseObjects() }

// Close stops the object's background goroutines — the read cache's
// combiner when WithReadCache is set, and the epoch rotator when
// WithWindow is set (the window freezes: no further aging; reads keep
// serving the frozen ring and Reset returns an error). Idempotent, and
// a no-op otherwise; handles stay usable afterwards (cached reads
// refresh inline).
func (c *objectCore[H]) Close() { c.rt.Close() }

// Reset replaces the whole window with fresh epochs — the object
// restarts empty. Only windowed objects (WithWindow) support it; it is
// an error otherwise, and after Close. Reset is not atomic with
// concurrent mutations: a mutation racing it lands on either side,
// exactly like one racing a rotation.
func (c *objectCore[H]) Reset() error { return c.reset() }

// StepsRetired returns the cumulative shared-memory steps credited by
// released pooled handles. Steps of handles still held, or of manual
// Handle(i) handles, are not included (their counters are owned by the
// holding goroutine and cannot be read safely mid-flight).
func (c *objectCore[H]) StepsRetired() uint64 { return c.slots.retired.Load() }

// snapshotBounds, snapshotSteps, and snapshotDetail are the kind-agnostic
// parts of the registry's instance view (see Registry.Snapshot); kinds
// whose exported value needs a different envelope or a distribution
// detail override them.
func (c *objectCore[H]) snapshotBounds() Bounds           { return c.Bounds() }
func (c *objectCore[H]) snapshotSteps() uint64            { return c.snap.Steps() }
func (c *objectCore[H]) snapshotDetail() *HistogramDetail { return nil }

// kindDescriptor is one registration in the backend-plane table:
// everything the spec and registry layers need to know about an object
// kind — its text name, which accuracy modes its backends implement
// (with any extra per-mode precondition), whether WithBound applies, how
// its envelope composes on the sharded runtime, which bench scenario
// covers it, and how to build it.
type kindDescriptor struct {
	kind   Kind
	name   string // Kind text name (String/MarshalText/ParseKind)
	plural string // for validation error messages

	// The kind's policy row on the plane, taken verbatim from
	// internal/shard (the single source of truth for combine/buffer
	// names and envelope scaling; Kinds exposes it for docs, tables, and
	// the bench-coverage check).
	policy   shard.PolicyRow
	envelope string // how the per-shard envelope composes (prose)
	scenario string // bench scenario covering this kind (CI-checked)

	// staleTerm documents, per kind, what the WithReadCache staleness
	// window adds to the envelope (the read-plane analogue of envelope;
	// source for the README's read-plane table).
	staleTerm string
	// readScenario names the read-dominated bench scenario covering this
	// kind's cached read path. Every kind accepts WithReadCache (the
	// read-combiner tier is generic), so the startup gate and the bench
	// coverage test require it to be declared and emitted, like scenario.
	readScenario string

	// windowTerm documents, per kind, what a windowed read means under
	// the kind's combine — which aggregate "over the last d" the live
	// ring folds to (source for the README's windowed-objects table).
	windowTerm string
	// windowScenario names the windowed observe+scrape bench scenario
	// covering this kind. Every kind supports WithWindow (the epoch ring
	// is generic), so the startup gate and the bench coverage test
	// require it to be declared and emitted, like scenario and
	// readScenario.
	windowScenario string

	// accuracies is the kind's row set in the accuracy plane: each
	// supported accuracy mode maps to an extra precondition check (nil =
	// none beyond the accuracy table's own parameter checks). A mode
	// absent from the map is rejected by validation, so accuracy support
	// is declared here — per kind, per row — not switched on anywhere.
	accuracies map[accMode]func(s Spec) error
	// frontierScenario names the deterministic-vs-randomized frontier
	// bench scenario for kinds that register a randomized accuracy row
	// (CI-checked like scenario: a randomized-capable kind without one
	// fails the startup gate).
	frontierScenario string
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
// README's policy table and for the CI check that every kind has a bench
// scenario.
type KindPolicy struct {
	// Kind identifies the object family.
	Kind Kind
	// Combine names how a read folds the per-shard reads ("sum", "max",
	// "per-component").
	Combine string
	// Buffer names the handle-local buffering discipline ("count
	// batching", "write elision", "component elision").
	Buffer string
	// Envelope describes how the per-shard envelope composes over S
	// shards and WithBatch(B) buffering.
	Envelope string
	// BenchScenario names the bench record scenario covering this kind
	// (see internal/bench and cmd/approxbench).
	BenchScenario string
	// StaleTerm describes what the WithReadCache staleness window adds
	// to the kind's envelope (the read-plane analogue of Envelope).
	StaleTerm string
	// ReadBenchScenario names the read-dominated bench scenario covering
	// this kind's cached read path (CI-checked like BenchScenario: a kind
	// on the read-combiner tier without one fails the startup gate).
	ReadBenchScenario string
	// WindowTerm describes what a WithWindow read aggregates under the
	// kind's combine — the per-kind reading of "over the last d".
	WindowTerm string
	// WindowBenchScenario names the windowed observe+scrape bench
	// scenario covering this kind (CI-checked like BenchScenario: a kind
	// declaring window support without one fails the startup gate).
	WindowBenchScenario string
	// Accuracies lists the accuracy classes the kind's backends
	// implement, in accuracy-table order (e.g. "exact", "additive",
	// "multiplicative", "randomized") — the exported view of the kind's
	// accuracy row set.
	Accuracies []string
	// FrontierBenchScenario names the deterministic-vs-randomized
	// frontier bench scenario for kinds with a "randomized" accuracy row
	// (CI-checked like BenchScenario: a randomized-capable kind without
	// one fails the startup gate); empty for deterministic-only kinds.
	FrontierBenchScenario string
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
			Kind:                  d.kind,
			Combine:               d.policy.Combine,
			Buffer:                d.policy.Buffer,
			Envelope:              d.envelope,
			BenchScenario:         d.scenario,
			StaleTerm:             d.staleTerm,
			ReadBenchScenario:     d.readScenario,
			WindowTerm:            d.windowTerm,
			WindowBenchScenario:   d.windowScenario,
			Accuracies:            accs,
			FrontierBenchScenario: d.frontierScenario,
		})
	}
	return out
}
