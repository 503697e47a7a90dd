package shard

import (
	"fmt"
	"time"

	"approxobj/internal/prim"
	"approxobj/internal/satmath"
	"approxobj/internal/telemetry"
)

// This file is the policy-driven core of the backend plane: one generic
// object (plane) and one generic handle core (core) parameterized by
//
//   - a combine policy: how a read folds the S per-shard reads into the
//     object's value (sum for counters, max for max registers,
//     per-component merge for snapshots), and
//   - a buffer policy: how a handle's mutations are buffered locally
//     before reaching its home shard (count batching, write elision, or
//     component elision).
//
// The kind-specific files (shard.go, maxreg.go, snapshot.go,
// histogram.go) contribute only their backends, their mutation method,
// and their policy row — everything else (construction, handle wiring,
// combined reads, flushes, envelope composition, step accounting, and
// the accessors every kind object shares) lives here once.

// Reader is the read side of a per-shard handle: the generic core issues
// one Read per shard and folds the results with the kind's Combine.
type Reader[V any] interface{ Read() V }

// Combine folds the next shard's read into the accumulator. It may
// mutate and return acc (the per-component merge does); acc is always a
// value the caller owns — the first shard's read into the caller's
// destination buffer.
type Combine[V any] func(acc, next V) V

// bufferPolicy enumerates the handle-local buffering disciplines of the
// plane. All three trade read freshness (the Buffer term of Bounds) for
// mutations that touch no shared memory.
type bufferPolicy int

const (
	// countBatching buffers mutation counts: a counter handle absorbs
	// B-1 of every B Incs locally and flushes them in one bulk apply.
	// System-wide staleness is (B-1) per handle, so the Buffer term
	// scales with the slot count n.
	countBatching bufferPolicy = iota
	// writeElision skips the shared write when the value is inside the
	// window above the handle's last flushed value, keeping the pending
	// maximum locally (max registers: values at or below the flushed one
	// are subsumed and dropped for free). The object's maximum lives in
	// ONE handle, so the Buffer term is B-1, not scaled by n.
	writeElision
	// componentElision is writeElision for last-write-wins components
	// (snapshots): upward moves inside the window stay local with the
	// LATEST (not highest) value pending, but downward moves always
	// flush — a stale higher value would overstate the component, which
	// the one-sided envelope does not allow. Components are disjoint
	// across handles, so the per-component Buffer term is B-1.
	componentElision
	// bucketBatching is count batching for vector-valued mutations
	// (histograms): a handle accumulates per-bucket observation counts
	// locally and flushes ALL pending buckets once the total pending
	// count reaches B, so at most B-1 observations per handle — across
	// every bucket together, not per bucket — are invisible to readers
	// between flushes. Like countBatching the staleness scales with the
	// slot count n (Buffer = (B-1)*n); unlike it the flush replays the
	// pending counts bucket by bucket.
	bucketBatching
)

// bucketBuf is the bucketBatching state: per-bucket pending counts
// (pending holds their total) and the indices with a nonzero pending
// count, so a flush visits only touched buckets — an unbuffered B = 1
// handle flushes in O(1), not O(buckets). It is pooled per process slot
// by the owning Histogram (see Histogram.Handle): a re-created handle
// for a slot inherits the slot's pending counts instead of stranding
// them — counts stuck in an abandoned handle's buffer would violate the
// (B-1)-per-handle staleness the Buffer term of Bounds promises — and
// the acquire path stops allocating the vector.
type bucketBuf struct {
	pending uint64
	vec     []uint64
	touched []int
}

// buffer is the handle-local mutation buffer between a handle and its
// home shard. flush applies a value to shared memory: a pending
// increment count under countBatching, the pending value under the
// elision policies.
type buffer struct {
	policy bufferPolicy
	batch  uint64
	flush  func(v uint64)

	pending uint64
	flushed uint64 // last value written through (elision policies only)
	dirty   bool   // pending holds an unflushed elided value

	// bucketBatching state (nil under the scalar policies) and the
	// per-bucket flush to the home shard.
	bb          *bucketBuf
	flushBucket func(b int, d uint64)

	// Telemetry (nil when uninstrumented — the only cost then is the
	// `tel != nil` branch on each path, mirroring the prim nil-gate).
	// The hot per-mutation events (a buffered hit, an elided write) are
	// batched in the plain locals below and published every
	// telemetry.CounterBatch events; every flush path drains them, so
	// the meters' lag tracks the buffer's own lag and LagBound stays an
	// honest envelope.
	tel         *telemetry.Sink
	slot        int
	localHits   uint64
	localElided uint64
}

// noteFlush reports one buffer flush of amount v to the sink: the flush
// event itself, the residues of the batched locals, and the sampled
// trace hook. Called on every path that publishes buffered state.
func (b *buffer) noteFlush(v uint64) {
	if b.tel == nil {
		return
	}
	b.tel.Inc(telemetry.EvFlush, b.slot)
	b.tel.FlushLocal(telemetry.EvBufferHit, b.slot, &b.localHits)
	b.tel.FlushLocal(telemetry.EvElidedWrite, b.slot, &b.localElided)
	b.tel.Trace(telemetry.TraceFlush, b.slot, v)
}

// add routes one mutation (an increment count or a value) through the
// policy: absorb it locally or flush to the home shard.
func (b *buffer) add(v uint64) {
	switch b.policy {
	case countBatching:
		b.pending += v
		if b.pending >= b.batch {
			d := b.pending
			b.pending = 0
			b.flush(d)
			b.noteFlush(d)
			return
		}
		if b.tel != nil {
			b.tel.BumpLocal(telemetry.EvBufferHit, b.slot, &b.localHits)
		}
	case writeElision:
		if v <= b.flushed {
			// Subsumed: the home shard already holds >= v.
			if b.tel != nil {
				b.tel.BumpLocal(telemetry.EvElidedWrite, b.slot, &b.localElided)
			}
			return
		}
		if v-b.flushed < b.batch {
			// Elide: v trails a future flush by at most B-1, the
			// staleness the Buffer term of Bounds promises.
			if v > b.pending {
				b.pending, b.dirty = v, true
			}
			if b.tel != nil {
				b.tel.BumpLocal(telemetry.EvElidedWrite, b.slot, &b.localElided)
			}
			return
		}
		b.writeThrough(v)
	case componentElision:
		if v == b.flushed {
			// The component is back at its flushed value: anything
			// elided in between is superseded.
			b.pending, b.dirty = 0, false
			if b.tel != nil {
				b.tel.BumpLocal(telemetry.EvElidedWrite, b.slot, &b.localElided)
			}
			return
		}
		if v > b.flushed && v-b.flushed < b.batch {
			b.pending, b.dirty = v, true // latest value wins, not highest
			if b.tel != nil {
				b.tel.BumpLocal(telemetry.EvElidedWrite, b.slot, &b.localElided)
			}
			return
		}
		b.writeThrough(v)
	}
}

func (b *buffer) writeThrough(v uint64) {
	b.flush(v)
	b.flushed = v
	b.pending, b.dirty = 0, false
	b.noteFlush(v)
}

// addBucket routes d observations of bucket i through the bucketBatching
// policy: accumulate locally, flush every pending bucket once the total
// pending count reaches the batch size.
func (b *buffer) addBucket(i int, d uint64) {
	if d == 0 {
		return
	}
	bb := b.bb
	if bb.vec[i] == 0 {
		bb.touched = append(bb.touched, i)
	}
	bb.vec[i] = satmath.Add(bb.vec[i], d)
	bb.pending = satmath.Add(bb.pending, d)
	if bb.pending >= b.batch {
		b.flushBuckets()
		return
	}
	if b.tel != nil {
		b.tel.BumpLocal(telemetry.EvBufferHit, b.slot, &b.localHits)
	}
}

// flushBuckets publishes every pending bucket count to the home shard —
// visiting only the touched buckets, so the cost is proportional to how
// many distinct buckets are pending, not to the bucket count.
func (b *buffer) flushBuckets() {
	bb := b.bb
	if bb.pending == 0 {
		return
	}
	d := bb.pending
	bb.pending = 0
	for _, i := range bb.touched {
		if d := bb.vec[i]; d != 0 {
			bb.vec[i] = 0
			b.flushBucket(i, d)
		}
	}
	bb.touched = bb.touched[:0]
	b.noteFlush(d)
}

// Flush publishes the buffered state to the home shard; it is a no-op
// when nothing is buffered.
func (b *buffer) Flush() {
	switch b.policy {
	case countBatching:
		if b.pending == 0 {
			return
		}
		d := b.pending
		b.pending = 0
		b.flush(d)
		b.noteFlush(d)
	case bucketBatching:
		b.flushBuckets()
	default:
		if !b.dirty {
			return
		}
		b.writeThrough(b.pending)
	}
}

// Pending returns the buffered state (diagnostic): the buffered
// mutation count under the batching policies (total over buckets for
// bucketBatching), the pending elided value (0 when none) under the
// elision policies.
func (b *buffer) Pending() uint64 {
	switch b.policy {
	case countBatching:
		return b.pending
	case bucketBatching:
		return b.bb.pending
	default:
		if !b.dirty {
			return 0
		}
		return b.pending
	}
}

// meta is the envelope declaration every backend carries: its name (for
// tables and errors), its value bound (0 = unbounded), its per-shard
// multiplicative/additive accuracy as functions of the parameter k, and
// its per-shard envelope failure probability delta (0 for deterministic
// backends; the probability a single shard's read escapes its numeric
// envelope for randomized ones). A nil mult means exact (1); a nil add
// means no additive slack (0).
type meta struct {
	name  string
	bound uint64
	mult  func(k uint64) uint64
	add   func(k uint64) uint64
	delta float64
}

// Name returns the backend's name (for tables and error messages).
func (m meta) Name() string { return m.name }

// Bound returns the backend's value bound, or 0 for unbounded backends.
func (m meta) Bound() uint64 { return m.bound }

func (m meta) multOf(k uint64) uint64 {
	if m.mult == nil {
		return 1
	}
	return m.mult(k)
}

func (m meta) addOf(k uint64) uint64 {
	if m.add == nil {
		return 0
	}
	return m.add(k)
}

// backend constructs one shard's underlying object of type O and
// declares its per-shard accuracy envelope. The exported per-kind names
// (Backend, MaxRegBackend) are instantiations of it.
type backend[O any] struct {
	meta
	make func(f *prim.Factory, k uint64) (O, error)
}

// String names the buffering discipline for tables and docs.
func (b bufferPolicy) String() string {
	switch b {
	case writeElision:
		return "write elision"
	case componentElision:
		return "component elision"
	case bucketBatching:
		return "bucket batching"
	default:
		return "count batching"
	}
}

// Config configures a sharded object of any kind. The zero Config is
// one unbuffered shard with the read cache and telemetry off; the
// public spec layer is the single validation point, so Config is plain
// data and every kind reads the same four fields.
type Config struct {
	// Shards is the shard count S (0 means 1). Mutations spread across
	// shards by handle affinity; reads cost one underlying read per
	// shard, folded by the kind's combine.
	Shards int
	// Batch is the per-handle buffer B (0 means 1, unbuffered). What it
	// buffers is the kind's buffer policy: increments for counters (up
	// to B-1 per handle invisible between flushes), the write-elision
	// window for max registers and the component-elision window for
	// snapshots (readers trail by at most B-1), whole observations for
	// histograms. Bounds reports the headroom as the Buffer term.
	Batch int
	// ReadStale enables the read-combiner tier (0 means off): reads serve
	// a pre-combined value at most ReadStale old, independent of S, at
	// the cost of the Stale term in Bounds. The object's LAST slot is
	// then reserved for the background combiner goroutine (so n must be
	// >= 2); stop it with Close.
	ReadStale time.Duration
	// Tel attaches an internal telemetry sink to the runtime paths
	// (flushes, buffer hits, read-cache traffic, combiner ticks, arena
	// rows, and for windowed objects rotations and re-homes). Nil
	// disables instrumentation: the hot paths see a single never-taken
	// branch.
	Tel *telemetry.Sink
}

// orOne maps an unset (zero) Config count to its default of 1.
func orOne(v int) int {
	if v == 0 {
		return 1
	}
	return v
}

// PolicyRow is the exported view of one kind's policy row, consumed by
// the public backend table (approxobj.Kinds) so the spec layer derives
// its rows from this package instead of hand-mirroring them.
type PolicyRow struct {
	// Combine names how a read folds the per-shard reads.
	Combine string
	// Buffer names the handle-local buffering discipline.
	Buffer string
	// AddScalesWithShards reports whether the per-shard additive slack
	// sums over shards under this combine.
	AddScalesWithShards bool
	// BufferScalesWithProcs reports whether the B-1 buffering headroom
	// multiplies by the slot count.
	BufferScalesWithProcs bool
}

func (p *policy[V]) row() PolicyRow {
	return PolicyRow{
		Combine:               p.name,
		Buffer:                p.buffer.String(),
		AddScalesWithShards:   p.addScalesWithShards,
		BufferScalesWithProcs: p.bufferScalesWithProcs,
	}
}

// CounterPolicyRow, MaxRegPolicyRow, SnapshotPolicyRow, and
// HistogramPolicyRow export the kinds' policy rows.
func CounterPolicyRow() PolicyRow   { return counterPolicy.row() }
func MaxRegPolicyRow() PolicyRow    { return maxRegPolicy.row() }
func SnapshotPolicyRow() PolicyRow  { return snapshotPolicy.row() }
func HistogramPolicyRow() PolicyRow { return histogramPolicy.row() }

// policy is one kind's row of the plane: how reads fold the per-shard
// (and, in a window, per-epoch) values, how the per-shard envelope
// composes under that fold, which buffering discipline its handles use,
// and the read-cache shape of its value. The spec layer's backend table
// derives its rows from these via PolicyRow.
type policy[V any] struct {
	name    string     // policy-table name: "sum", "max", "per-component"
	combine Combine[V] // the fold itself, over shards and over epochs
	buffer  bufferPolicy
	// addScalesWithShards: the per-shard additive slack sums over shards
	// (true for the counter's sum-combine; false for max and
	// per-component merge, which pick one shard's value per result).
	// The same holds over a window's epochs.
	addScalesWithShards bool
	// bufferScalesWithProcs: the per-handle staleness B-1 can accumulate
	// across all n handles at once (true for count batching; false for
	// the elision policies, where the staleness lives in one handle per
	// result component).
	bufferScalesWithProcs bool
	// newCache builds the read-combiner tier for the value's shape
	// (newScalarReadCache or newVecReadCache).
	newCache func(d time.Duration) readCache[V]
}

// slotBinding is one process slot's cached binding to every shard: the
// per-shard procs and the per-shard read handles, built once and reused
// by every handle (re)creation for the slot. Reuse is safe — per-shard
// handles carry persistent per-process local state (sequence numbers,
// cached own-row values) that a slot's successive handles are meant to
// continue from, and slot handles are single-goroutine by contract — and
// it makes re-creating a handle (pooled churn, windowed epoch rebinds)
// allocation-free below the handle struct itself.
type slotBinding[H any] struct {
	readers []H
	procs   []*prim.Proc
}

// plane is the generic sharded object: S shards of O combined on read by
// the kind's Combine, with handle-local buffering per the kind's policy.
// Kind-specific object types embed it — inheriting the accessors N, K,
// Shards, Batch, Backend, ReadCache, Close, Bounds, and BaseObjects —
// and add nothing but their Handle and its mutation method.
type plane[O any, H Reader[V], V any] struct {
	rt       *runtime[O]
	k        uint64
	batch    uint64
	be       backend[O]
	pol      *policy[V]
	handleOf func(o O, p *prim.Proc) H
	// readInto is the per-shard read into a reused buffer, nil for
	// scalar-valued kinds (whose reads allocate nothing anyway). When
	// set, combined reads fold through two per-handle scratch buffers
	// instead of allocating per shard read.
	readInto func(h H, dst V) V
	// slots caches each process slot's shard binding (see slotBinding).
	slots []slotBinding[H]
	// cache is the read-combiner tier (see readcache.go), nil when the
	// plane serves every read as a full combine. When non-nil, the last
	// process slot is reserved for the background combiner goroutine.
	cache readCache[V]
	// tel is the telemetry sink the plane's moving parts report into
	// (nil when uninstrumented).
	tel *telemetry.Sink
}

// newPlane validates the shared configuration (batch range, batch vs.
// backend bound, read-cache slot reservation) and builds S shards of n
// slots each. cfg.ReadStale > 0 enables the read-combiner tier with
// that staleness window, built by the policy's newCache; the LAST of
// the n slots is then reserved for the background combiner goroutine
// and must not be handed out. readInto is the per-shard read into a
// reused buffer, nil for scalar kinds.
func newPlane[O any, H Reader[V], V any](
	n int, k uint64, cfg Config, be backend[O], pol *policy[V],
	handleOf func(o O, p *prim.Proc) H, readInto func(h H, dst V) V,
) (*plane[O, H, V], error) {
	shards, batch := orOne(cfg.Shards), orOne(cfg.Batch)
	if batch < 1 {
		return nil, errBatch(batch)
	}
	// Legal writes satisfy v < m, so the largest is m-1: an elision
	// window of B-1 >= m-1 (i.e. B >= m) would swallow every legal write.
	if be.bound > 0 && uint64(batch) >= be.bound {
		return nil, fmt.Errorf("shard: batch %d exceeds the %d-bounded backend's value range", batch, be.bound)
	}
	if cfg.ReadStale < 0 {
		return nil, fmt.Errorf("shard: read-cache staleness must be >= 0, got %v", cfg.ReadStale)
	}
	if cfg.ReadStale > 0 && n < 2 {
		return nil, fmt.Errorf("shard: read cache needs a dedicated combiner slot (n >= 2), got n = %d", n)
	}
	rt, err := newRuntime(be.name, n, shards, cfg.Tel, func(f *prim.Factory) (O, error) {
		return be.make(f, k)
	})
	if err != nil {
		return nil, err
	}
	p := &plane[O, H, V]{
		rt: rt, k: k, batch: uint64(batch), be: be, pol: pol,
		handleOf: handleOf, readInto: readInto,
		slots: make([]slotBinding[H], n),
		tel:   cfg.Tel,
	}
	if cfg.ReadStale > 0 {
		p.cache = pol.newCache(cfg.ReadStale)
		p.cache.instrument(cfg.Tel)
		// The combiner owns the reserved last slot outright: handles for
		// it are refused (newCore), so its per-shard readers and its
		// core's scratch buffers race with nothing.
		core := p.coreAt(n - 1)
		go p.cache.run(core.combinedInto)
	}
	return p, nil
}

// ReadCache returns the read-cache staleness window (0 when the
// read-combiner tier is off).
func (p *plane[O, H, V]) ReadCache() time.Duration {
	if p.cache == nil {
		return 0
	}
	return p.cache.staleness()
}

// Close stops the plane's background combiner goroutine, if any, and
// waits for it to exit. Idempotent; reads stay valid afterwards (cached
// reads fall back to inline refreshes).
func (p *plane[O, H, V]) Close() {
	if p.cache != nil {
		p.cache.close()
	}
}

// N returns the number of process slots.
func (p *plane[O, H, V]) N() int { return p.rt.n }

// K returns the accuracy parameter passed to the backend.
func (p *plane[O, H, V]) K() uint64 { return p.k }

// Shards returns the shard count S.
func (p *plane[O, H, V]) Shards() int { return len(p.rt.shards) }

// Batch returns the per-handle buffer size B (1 means unbuffered).
func (p *plane[O, H, V]) Batch() uint64 { return p.batch }

// Backend returns the configured backend.
func (p *plane[O, H, V]) Backend() backend[O] { return p.be }

// kindPolicy and sink hand the window tier the kind's policy row and
// the telemetry sink (see Epoch).
func (p *plane[O, H, V]) kindPolicy() *policy[V] { return p.pol }
func (p *plane[O, H, V]) sink() *telemetry.Sink  { return p.tel }

// Bounds composes the combined read envelope from the backend's
// per-shard envelope and the kind's policy row: Add widens by S iff the
// combine sums shards, and the B-1 buffering headroom multiplies by the
// number of mutating slots iff every handle's buffer can be stale at
// once (the reserved combiner slot never mutates, so it is excluded).
// With the read-combiner tier on, Stale carries the staleness window as
// a further, time-domain widening of the regularity window. For a
// randomized backend the per-shard failure probabilities compose by
// union bound: a combined read is in range whenever every one of the S
// shard reads is, so Delta = min(1, S * delta_shard). The package
// comment derives each kind's composition.
func (p *plane[O, H, V]) Bounds() Bounds {
	b := Bounds{Mult: p.be.multOf(p.k), Add: p.be.addOf(p.k)}
	if p.pol.addScalesWithShards {
		b.Add = satmath.Mul(uint64(len(p.rt.shards)), b.Add)
	}
	head := p.batch - 1
	if p.pol.bufferScalesWithProcs {
		head = satmath.Mul(head, uint64(p.writers()))
	}
	b.Buffer = head
	if p.cache != nil {
		b.Stale = p.cache.staleness()
	}
	if p.be.delta > 0 {
		b.Delta = min(1, float64(len(p.rt.shards))*p.be.delta)
	}
	return b
}

// BaseObjects returns the number of resident base objects (registers,
// TAS cells) across all shards — the plane's space cost in the paper's
// model, where space is counted in base objects. Lazily allocated
// structures (the unbounded switch sequences of Algorithm 1, the tree
// nodes and epoch registers of the max registers) count what has
// materialized, not what they reserve, so the number grows with the
// execution. Windowed objects sum it over their epoch ring; the frontier
// bench (E19) uses it to compare deterministic and randomized state at
// equal target error.
func (p *plane[O, H, V]) BaseObjects() uint64 {
	var total uint64
	for _, f := range p.rt.facts {
		total += f.Resident()
	}
	return total
}

// writers is the number of slots that can hold buffered mutations: all
// of them, minus the reserved combiner slot when the read cache is on.
func (p *plane[O, H, V]) writers() int {
	if p.cache != nil {
		return p.rt.n - 1
	}
	return p.rt.n
}

// newCore binds process slot i to every shard and returns the shared
// handle core. With the read cache on, the last slot belongs to the
// background combiner and is refused here (slot handles are strictly
// single-goroutine; handing it out would race with the combiner).
func (p *plane[O, H, V]) newCore(i int) handleCore[H, V] {
	if p.cache != nil && i == p.rt.n-1 {
		panic(fmt.Sprintf("shard: slot %d is reserved for the read-cache combiner", i))
	}
	return p.coreAt(i)
}

// coreAt binds process slot i to every shard and returns the shared
// handle core: per-shard readers, the home shard's handle, the combine
// loop, the policy's buffer (whose flush function the kind-specific
// handle wires to its home-shard mutation), and the plane's read cache.
// The slot's shard binding is built on first use and cached (see
// slotBinding), so re-creating a slot's handle allocates no slices.
// Distinct slots may bind concurrently (they touch distinct entries);
// binding the SAME slot concurrently is excluded by the single-goroutine
// handle contract, exactly as using it would be.
func (p *plane[O, H, V]) coreAt(i int) handleCore[H, V] {
	sb := &p.slots[i]
	if sb.readers == nil {
		sb.procs = p.rt.slotProcs(i)
		sb.readers = make([]H, len(p.rt.shards))
		for s := range p.rt.shards {
			sb.readers[s] = p.handleOf(p.rt.shards[s], sb.procs[s])
		}
	}
	return handleCore[H, V]{
		readers:  sb.readers,
		home:     sb.readers[p.rt.home(i)],
		procs:    sb.procs,
		combine:  p.pol.combine,
		readInto: p.readInto,
		buf:      buffer{policy: p.pol.buffer, batch: p.batch, tel: p.tel, slot: i},
		cache:    p.cache,
		tel:      p.tel,
		slot:     i,
	}
}

// handleCore is the shared per-slot handle core every kind's handle embeds:
// the per-shard readers bound to one process slot, the home shard's
// handle, the combined read, the buffer, and step accounting. The
// kind-specific handle adds only its mutation method (Inc, Write,
// Update) over buf.add.
type handleCore[H Reader[V], V any] struct {
	readers  []H
	home     H
	procs    []*prim.Proc
	combine  Combine[V]
	readInto func(h H, dst V) V // per-shard read into a reused buffer; nil for scalar kinds
	scratch  V                  // fold buffer for the non-first shards' reads (vector kinds)
	refresh  func(V) V          // combinedInto, bound once on first cached read (method values allocate)
	buf      buffer
	cache    readCache[V] // the plane's read-combiner tier, nil when off
	tel      *telemetry.Sink
	slot     int
}

// Read returns the object's combined value. Without the read cache it
// combines one read of every shard with the kind's Combine — O(S) — and
// the result is inside the envelope the object's Bounds describes,
// relative to the regularity window of the package comment. With the
// read cache it serves the plane's pre-combined cell in O(1) when fresh
// (falling back to an inline re-combine through this handle's own
// readers when not); the same envelope then holds against the
// regularity window widened backward by the Stale term of Bounds. For
// vector-valued kinds the slice is fresh (owned by the caller); reuse a
// buffer across reads with ReadInto instead.
func (c *handleCore[H, V]) Read() V {
	var zero V
	return c.ReadInto(zero)
}

// ReadInto is Read with the result written into dst (grown as needed;
// scalar kinds ignore it). Steady-state cached reads and uncached
// combines through one handle allocate nothing: per-shard reads land in
// the handle's scratch buffers and the result in dst.
func (c *handleCore[H, V]) ReadInto(dst V) V {
	if c.cache == nil {
		return c.combinedInto(dst)
	}
	if c.refresh == nil {
		c.refresh = c.combinedInto
	}
	if c.tel != nil {
		// Every cached-path read counts here (hits are derived as reads
		// minus the misses the cache itself reports): one striped atomic
		// add when instrumented, one predicted branch when not — the
		// read path takes no prim steps and allocates nothing either way.
		c.tel.Inc(telemetry.EvCacheRead, c.slot)
	}
	return c.cache.readInto(dst, c.refresh)
}

// combinedInto is the raw combine loop: one read of every shard, folded
// by the kind's Combine into dst. Scalar kinds fold plain values and
// ignore dst; vector kinds read the first shard into dst and every
// later shard into the handle's scratch buffer, so a steady-state
// combine allocates nothing.
func (c *handleCore[H, V]) combinedInto(dst V) V {
	if c.readInto == nil {
		acc := c.readers[0].Read()
		for _, r := range c.readers[1:] {
			acc = c.combine(acc, r.Read())
		}
		return acc
	}
	dst = c.readInto(c.readers[0], dst)
	for _, r := range c.readers[1:] {
		c.scratch = c.readInto(r, c.scratch)
		dst = c.combine(dst, c.scratch)
	}
	return dst
}

// Flush publishes any handle-locally buffered mutations to the home
// shard. It is a no-op when the buffer is empty.
func (c *handleCore[H, V]) Flush() { c.buf.Flush() }

// Pending returns the handle's buffered state (diagnostic): buffered
// increments for counters, the total pending observation count across
// all buckets for histograms, the pending elided value (0 when none)
// for max registers and snapshots.
func (c *handleCore[H, V]) Pending() uint64 { return c.buf.Pending() }

// Steps returns the shared-memory steps this handle's process slot has
// taken across all shards.
func (c *handleCore[H, V]) Steps() uint64 { return stepsOf(c.procs) }
