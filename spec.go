package approxobj

import (
	"fmt"
	"strings"
	"time"
)

// Kind identifies an object family: counters (Inc/Read), max registers
// (Write/Read), single-writer snapshots (Update/Scan), or histograms
// (Observe/Quantile — the first kind whose read side is a query engine,
// not a scalar). The registered kinds and their composition policies
// live in the backend-plane table (see Kinds).
type Kind int

// Object kinds.
const (
	KindCounter Kind = iota + 1
	KindMaxRegister
	KindSnapshot
	KindHistogram
)

// String returns the kind's name, as registered in the backend table.
func (k Kind) String() string {
	if d := descriptorOf(k); d != nil {
		return d.name
	}
	return "invalid"
}

// MarshalText renders the kind by name, so registry snapshots export
// readably (e.g. as JSON).
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a kind by its registered name — the inverse of
// MarshalText, so registry names and bench records round-trip. Unknown
// names are an error listing the registered kinds.
func (k *Kind) UnmarshalText(text []byte) error {
	parsed, err := ParseKind(string(text))
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// ParseKind resolves a kind name ("counter", "max register", "snapshot",
// "histogram") against the backend table. Unknown names are an error.
func ParseKind(name string) (Kind, error) {
	for _, d := range kindTable {
		if d.name == name {
			return d.kind, nil
		}
	}
	known := make([]string, 0, len(kindTable))
	for _, d := range kindTable {
		known = append(known, d.name)
	}
	return 0, fmt.Errorf("approxobj: unknown object kind %q (registered kinds: %s)", name, strings.Join(known, ", "))
}

type accMode int

const (
	accExact accMode = iota
	accAdditive
	accMultiplicative
	accRandomized
)

// accuracyRow is one row of the accuracy table: the mode's name, how a
// full selection renders, and the mode's own parameter preconditions
// (kind-independent; a kind's extra preconditions live in its
// descriptor's accuracies map). Adding an accuracy class is a row
// registration here plus per-kind rows in the descriptors that support
// it — validation, String rendering, and the Kinds export all derive
// from the tables, with no per-mode switches left to grow.
type accuracyRow struct {
	mode   accMode
	name   string
	render func(a Accuracy) string
	check  func(a Accuracy) error
}

// accuracyTable registers every accuracy class, in presentation order.
var accuracyTable = []accuracyRow{
	{
		mode:   accExact,
		name:   "exact",
		render: func(Accuracy) string { return "exact" },
	},
	{
		mode:   accAdditive,
		name:   "additive",
		render: func(a Accuracy) string { return fmt.Sprintf("additive(%d)", a.k) },
	},
	{
		mode:   accMultiplicative,
		name:   "multiplicative",
		render: func(a Accuracy) string { return fmt.Sprintf("multiplicative(%d)", a.k) },
		check: func(a Accuracy) error {
			if a.k < 2 {
				return fmt.Errorf("approxobj: multiplicative accuracy needs k >= 2, got %d", a.k)
			}
			return nil
		},
	},
	{
		mode:   accRandomized,
		name:   "randomized",
		render: func(a Accuracy) string { return fmt.Sprintf("randomized(%d, %g)", a.k, a.delta) },
		check: func(a Accuracy) error {
			if a.k < 2 {
				return fmt.Errorf("approxobj: randomized accuracy needs k >= 2, got %d", a.k)
			}
			if a.delta <= 0 || a.delta >= 1 {
				return fmt.Errorf("approxobj: randomized accuracy needs 0 < delta < 1, got %v", a.delta)
			}
			return nil
		},
	},
}

// accuracyRowOf resolves a mode against the accuracy table.
func accuracyRowOf(m accMode) *accuracyRow {
	for i := range accuracyTable {
		if accuracyTable[i].mode == m {
			return &accuracyTable[i]
		}
	}
	return nil
}

// String names the mode alone ("exact", "additive", "multiplicative",
// "randomized"), without the parameters; Accuracy.String renders the
// full selection.
func (m accMode) String() string {
	if r := accuracyRowOf(m); r != nil {
		return r.name
	}
	return "invalid"
}

// Accuracy selects a point on the paper's accuracy/steps trade-off. Use
// Exact, Additive, Multiplicative, or Randomized to build one and
// WithAccuracy to apply it to a spec. The zero value is Exact().
type Accuracy struct {
	mode  accMode
	k     uint64
	delta float64
}

// Exact requests precise reads: the object's envelope is zero and every
// read returns the true value.
func Exact() Accuracy { return Accuracy{mode: accExact} }

// Additive requests k-additive accuracy: reads may err by at most ±k.
// Implemented for counters (the batched collect of Aspnes et al.'s lower
// bound regime): increments amortize to O(n/k) steps, reads cost O(n).
func Additive(k uint64) Accuracy { return Accuracy{mode: accAdditive, k: k} }

// Multiplicative requests k-multiplicative accuracy: reads may err by a
// factor of k (x in [v/k, k*v]). This is the paper's relaxation —
// Algorithm 1 for counters (O(1) amortized steps for k >= sqrt(n)) and
// Algorithm 2 for max registers (O(min(log2 log_k m, n)) worst case).
func Multiplicative(k uint64) Accuracy { return Accuracy{mode: accMultiplicative, k: k} }

// Randomized requests k-multiplicative accuracy that holds only with
// probability >= 1-delta per read: a Morris counter per shard (exponent
// register + per-handle RNG state), with the Morris accuracy parameter
// chosen so a read escapes [v/k, k*v] with probability at most delta
// (reported as the Delta term of Bounds, composed across shards and
// window epochs by union bound). This is the contrast class of the
// paper's related work (§I-A): exponentially smaller state than any
// deterministic counter — O(log log v) bits of exponent versus the
// deterministic lower bounds in PAPERS.md — in exchange for giving up
// the on-every-schedule guarantee. Requires k >= 2 and 0 < delta < 1.
// Implemented for counters.
func Randomized(k uint64, delta float64) Accuracy {
	return Accuracy{mode: accRandomized, k: k, delta: delta}
}

// IsExact reports whether the accuracy pins reads to the true value.
func (a Accuracy) IsExact() bool { return a.mode == accExact }

// K returns the accuracy parameter: 1 for exact, the additive slack for
// Additive, the multiplicative factor for Multiplicative and Randomized.
func (a Accuracy) K() uint64 {
	if a.mode == accExact {
		return 1
	}
	return a.k
}

// Delta returns the per-read envelope failure probability: 0 for the
// deterministic accuracies, the configured delta for Randomized.
func (a Accuracy) Delta() float64 { return a.delta }

// String renders the accuracy for error messages and tables.
func (a Accuracy) String() string {
	if r := accuracyRowOf(a.mode); r != nil {
		return r.render(a)
	}
	return "invalid"
}

// Spec is the validated description of an object: which family member to
// build (accuracy), for how many process slots, and how the runtime
// should scale it (shards, batching) or bound it (max-register range).
// Specs are built by NewCounter, NewMaxRegister, NewSnapshot, and the
// Registry from functional options; inspect a live object's spec with
// its Spec method.
type Spec struct {
	kind      Kind
	procs     int
	acc       Accuracy
	shards    int
	batch     int
	bound     uint64
	readStale time.Duration

	// windowed objects (WithWindow): the window duration and the number
	// of epoch instances it is divided into. windowEpochs == 0 means
	// cumulative (no window).
	windowDur    time.Duration
	windowEpochs int

	// option provenance, so validation and backend selection can
	// distinguish "defaulted" from "explicitly set" (WithBound(0) is not
	// the same as no bound).
	boundSet bool
	// readCacheSet records that WithReadCache was applied, so validation
	// can reject WithReadCache(0) (which would otherwise silently mean
	// "off") with a spec-level error.
	readCacheSet bool
	// windowSet records that WithWindow was applied, so validation can
	// reject degenerate windows (d <= 0, epochs < 2) instead of silently
	// treating them as "cumulative".
	windowSet bool

	// snapshotSlot reserves one extra process slot (index procs) for the
	// registry's Snapshot reads; see Registry.
	snapshotSlot bool

	// tel is the telemetry domain the object reports into (WithTelemetry);
	// nil disables instrumentation entirely.
	tel *Telemetry
}

// Kind returns the object family the spec describes.
func (s Spec) Kind() Kind { return s.kind }

// Procs returns the number of process slots available to callers (the
// pool capacity; a registry-owned object holds one additional internal
// slot for snapshots).
func (s Spec) Procs() int { return s.procs }

// Accuracy returns the accuracy selection.
func (s Spec) Accuracy() Accuracy { return s.acc }

// Shards returns the shard count (1 when unsharded).
func (s Spec) Shards() int { return s.shards }

// Batch returns the per-handle buffer size: the increment buffer for
// counters, the write-elision window for max registers, the
// component-elision window for snapshots, the observation buffer for
// histograms (1 when unbuffered).
func (s Spec) Batch() int { return s.batch }

// Bound returns the value bound m (writes/observations must be < m), or
// 0 for unbounded max registers and histograms and for the boundless
// kinds.
func (s Spec) Bound() uint64 { return s.bound }

// ReadCache returns the read-cache staleness window (0 when the
// read-combiner tier is off); see WithReadCache.
func (s Spec) ReadCache() time.Duration { return s.readStale }

// Window returns the window duration (0 for cumulative objects) and
// the number of epoch instances it is divided into (0 likewise); see
// WithWindow.
func (s Spec) Window() (d time.Duration, epochs int) { return s.windowDur, s.windowEpochs }

// Windowed reports whether the spec describes a windowed object.
func (s Spec) Windowed() bool { return s.windowEpochs > 0 }

// totalProcs is the number of slots actually allocated in the underlying
// factories: the caller-visible slots, plus the registry snapshot slot,
// plus the read cache's reserved refresh slot. Backend preconditions
// (e.g. k >= sqrt(n) for multiplicative counters) apply to this total.
func (s Spec) totalProcs() int {
	n := s.procs
	if s.snapshotSlot {
		n++
	}
	if s.readStale > 0 {
		n++
	}
	return n
}

// sameObject reports whether two specs describe the same object
// configuration (ignoring option provenance), for Registry idempotence.
func (s Spec) sameObject(t Spec) bool {
	return s.kind == t.kind && s.procs == t.procs && s.acc == t.acc &&
		s.shards == t.shards && s.batch == t.batch && s.bound == t.bound &&
		s.readStale == t.readStale &&
		s.windowDur == t.windowDur && s.windowEpochs == t.windowEpochs &&
		s.tel == t.tel
}

// String renders the spec compactly, e.g.
// "counter{procs: 8, multiplicative(4), shards: 4, batch: 16}". Every
// kind renders shards/batch when they deviate from the unscaled default
// (counters always do, for continuity with earlier releases).
func (s Spec) String() string {
	out := fmt.Sprintf("%s{procs: %d, %s", s.kind, s.procs, s.acc)
	if s.kind == KindCounter || s.shards != 1 || s.batch != 1 {
		out += fmt.Sprintf(", shards: %d, batch: %d", s.shards, s.batch)
	}
	if s.bound > 0 {
		out += fmt.Sprintf(", bound: %d", s.bound)
	}
	if s.readStale > 0 {
		out += fmt.Sprintf(", cache: %s", s.readStale)
	}
	if s.windowEpochs > 0 {
		out += fmt.Sprintf(", window: %s/%d", s.windowDur, s.windowEpochs)
	}
	if s.tel != nil {
		out += ", telemetry"
	}
	return out + "}"
}

// Option configures a Spec. Options are orthogonal: any accuracy composes
// with any shard count, batch size, and process count; validation of the
// combined spec happens once, in the constructor, against the kind's
// backend-table registration instead of in per-family code paths.
type Option func(*Spec)

// WithProcs sets the number of process slots n (default 1). Handles bind
// goroutines to slots — via Acquire/Do (pooled) or Handle(i) (manual) —
// and at most n goroutines can operate concurrently. For snapshots, n is
// also the component count: slot i is the single writer of component i.
func WithProcs(n int) Option { return func(s *Spec) { s.procs = n } }

// WithAccuracy selects the object's accuracy (default Exact()): see
// Exact, Additive, Multiplicative, and Randomized. Each kind's backend
// table lists the modes it implements (the Accuracies column of Kinds);
// unsupported combinations are rejected by the constructor.
func WithAccuracy(a Accuracy) Option { return func(s *Spec) { s.acc = a } }

// WithShards sets the shard count S (default 1): S independently accurate
// shards combined by readers, spreading mutation contention across
// disjoint base objects. How the combined read composes is the kind's
// combine policy (see Kinds): counter reads sum the shards (no widening
// of a multiplicative envelope; an additive envelope widens to S*k), max
// register reads take the max over shards, and snapshot scans merge per
// component — neither of which widens the envelope at all. See
// internal/shard.
func WithShards(n int) Option {
	return func(s *Spec) { s.shards = n }
}

// WithBatch sets the per-handle buffer B (default 1, unbuffered). What is
// buffered is the kind's buffer policy (see Kinds). For counters it
// buffers increments: B-1 of every B Incs touch no shared memory, at the
// cost of up to (B-1)·n increments being invisible to readers between
// flushes (the Buffer term of Bounds). For max registers it is the
// write-elision window: a handle skips the shared write when the value
// is within B-1 of its last flushed one, so reads may trail the true
// maximum by at most B-1 (per handle, not times n — the maximum lives in
// one handle). For snapshots it is the component-elision window: updates
// within B-1 above the component's last flushed value stay local, so a
// scanned component may trail its true value by at most B-1 (per
// component). For histograms it buffers whole observations: a handle
// accumulates per-bucket counts locally and flushes them all once B
// observations are pending, so up to (B-1)·n observations system-wide
// may be invisible to queries between flushes (the rank-domain Buffer
// term of Bounds). Releasing a pooled handle flushes every kind.
func WithBatch(b int) Option {
	return func(s *Spec) { s.batch = b }
}

// WithBound sets the value bound m of the kinds with a value domain:
// for max registers, writes must be < m and bounded registers get the
// paper's Algorithm 2 with its O(min(log2 log_k m, n)) worst case
// (without it, max registers are unbounded — the epoch construction of
// Section I-B); for histograms, observations must be < m and the bucket
// table covers exactly [0, m) (without it, histograms bucket the full
// uint64 domain — exact histograms require a bound, since their table
// holds one bucket per value).
func WithBound(m uint64) Option {
	return func(s *Spec) {
		s.bound = m
		s.boundSet = true
	}
}

// WithReadCache enables the read-combiner tier with staleness window
// maxStale (default off). The object keeps one pre-combined cell —
// refreshed only by a read that finds it stale or empty — and serves
// reads from it in O(1) in the shard count: Read for counters and max
// registers, Scan for snapshots, and the bucket read under every
// histogram query (Count, Quantile, Rank, CDF). The cell's underlying
// combined read started at most maxStale before the cached read, so the
// object's Bounds envelope holds against the regularity window widened
// backward by maxStale — reported as the Stale term of Bounds; all other
// envelope terms are unchanged.
//
// The object has one cache, windowed objects included: their cell folds
// the whole live window, and Reset empties it. The cache starts no
// goroutine, so an object nobody reads does no work. It reserves one
// extra internal process slot for refreshes (like the registry's
// snapshot slot, it counts toward backend preconditions such as k >=
// sqrt(n)). Every refresh reads through that slot, so its steps are the
// reserved slot's and a caller handle's Steps does not count them.
func WithReadCache(maxStale time.Duration) Option {
	return func(s *Spec) {
		s.readStale = maxStale
		s.readCacheSet = true
	}
}

// WithWindow makes the object windowed (default cumulative): it is
// backed by a ring of n epoch instances — each a full plane with the
// spec's shards and batching — rotated every d/n,
// and every read answers over the live ring instead of
// since-creation. Writes stamp into the current epoch through the
// ordinary handle plumbing (handles re-home lazily after a rotation);
// reads combine the live epochs with the kind's combine policy, so
// NewHistogram(WithWindow(time.Minute, 6)) serves p99-over-the-last-
// minute with the same deterministic per-window envelope. The per-kind
// window reading (what "the last d" means under each combine) is in the
// kind's type documentation (Counter, MaxRegister, Snapshot, Histogram).
//
// The envelope gains the time-domain Window term d/n: the combined
// value covers at least the last d - d/n and at most the last d of
// mutations, and a read racing a rotation may miss the epoch being
// evicted — at most one epoch of truncation skew at either window
// edge, alongside the existing Stale term. For sum-combined kinds
// (counters) the per-epoch additive slack also sums over the ring (Add
// x n); all other envelope terms are unchanged.
//
// Windowed objects additionally support Reset (replace the whole
// window with fresh epochs) and make Snapshot(reset) the go-metrics
// read idiom; Close freezes the window (rotation stops, reads keep
// serving the frozen ring). n must be >= 2 — the previous epoch must
// stay live so writes racing a rotation are never lost from the
// window.
func WithWindow(d time.Duration, n int) Option {
	return func(s *Spec) {
		s.windowDur = d
		s.windowEpochs = n
		s.windowSet = true
	}
}

// withSnapshotSlot reserves the internal registry snapshot slot.
func withSnapshotSlot() Option { return func(s *Spec) { s.snapshotSlot = true } }

// newSpec applies opts over the defaults for kind and validates the
// combination. This is the single validation point of the package: every
// constructor — new-style, registry, or legacy wrapper — funnels through
// it.
func newSpec(kind Kind, opts []Option) (Spec, error) {
	s := Spec{kind: kind, procs: 1, acc: Exact(), shards: 1, batch: 1}
	for _, opt := range opts {
		opt(&s)
	}
	if err := s.validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// validate checks option compatibility for the spec as a whole. The
// checks are kind-independent range checks plus whatever the kind's
// backend-table registration declares (supported accuracy modes and
// their preconditions, bound support); there is no per-kind branching
// here — a new kind changes the table, not this function.
func (s Spec) validate() error {
	d := descriptorOf(s.kind)
	if d == nil {
		return fmt.Errorf("approxobj: invalid object kind %d", s.kind)
	}
	if s.procs < 1 {
		return fmt.Errorf("approxobj: %s needs at least one process slot, got %d", s.kind, s.procs)
	}
	// Sharding and batching apply to every kind on the unified runtime;
	// their range checks are kind-independent.
	if s.shards < 1 {
		return fmt.Errorf("approxobj: shard count must be >= 1, got %d", s.shards)
	}
	if s.batch < 1 {
		return fmt.Errorf("approxobj: batch size must be >= 1, got %d", s.batch)
	}
	if s.readCacheSet && s.readStale <= 0 {
		return fmt.Errorf("approxobj: read-cache staleness must be > 0, got %v (omit WithReadCache to disable caching)", s.readStale)
	}
	if s.windowSet {
		if s.windowDur <= 0 {
			return fmt.Errorf("approxobj: window duration must be > 0, got %v (omit WithWindow for a cumulative object)", s.windowDur)
		}
		if s.windowEpochs < 2 {
			return fmt.Errorf("approxobj: window needs at least 2 epochs (1 would truncate the whole window on every rotation), got %d", s.windowEpochs)
		}
	}
	row := accuracyRowOf(s.acc.mode)
	if row == nil {
		return fmt.Errorf("approxobj: invalid accuracy mode %d", s.acc.mode)
	}
	check, supported := d.accuracies[s.acc.mode]
	if !supported {
		return fmt.Errorf("approxobj: %s accuracy is not implemented for %s (use %s)",
			row.name, d.plural, supportedAccuracies(d))
	}
	if row.check != nil {
		if err := row.check(s.acc); err != nil {
			return err
		}
	}
	if s.boundSet && !d.allowBound {
		return fmt.Errorf("approxobj: WithBound applies only to max registers and histograms, not %s", d.plural)
	}
	if s.boundSet {
		if s.bound < 2 {
			return fmt.Errorf("approxobj: value bound must be >= 2, got %d", s.bound)
		}
		// Legal writes satisfy v < m, so the largest is m-1: an elision
		// window of B-1 >= m-1 (i.e. B >= m) covers every legal write from
		// a fresh handle and nothing would ever reach shared memory. Only
		// kinds whose batch IS a value window (max registers) care; for
		// histograms the batch is an observation count, unrelated to the
		// value domain.
		if d.boundLimitsBatch && uint64(s.batch) >= s.bound {
			return fmt.Errorf("approxobj: batch %d exceeds the %d-bounded register's value range (the elision window would swallow every write)", s.batch, s.bound)
		}
	}
	if check != nil {
		if err := check(s); err != nil {
			return err
		}
	}
	return nil
}

// supportedAccuracies renders a kind's accuracy modes for error messages
// ("exact or multiplicative"), in accuracy-table order.
func supportedAccuracies(d *kindDescriptor) string {
	names := []string{}
	for _, r := range accuracyTable {
		if _, ok := d.accuracies[r.mode]; ok {
			names = append(names, r.name)
		}
	}
	switch len(names) {
	case 0:
		return "nothing"
	case 1:
		return names[0]
	default:
		return strings.Join(names[:len(names)-1], ", ") + " or " + names[len(names)-1]
	}
}
