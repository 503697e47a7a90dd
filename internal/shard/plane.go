package shard

import (
	"fmt"

	"approxobj/internal/prim"
	"approxobj/internal/satmath"
	"approxobj/internal/telemetry"
)

// This file is the policy-driven core of the backend plane: one generic
// object (plane) and one generic handle core (core) parameterized by
//
//   - a combine policy: how a read folds the S per-shard reads into the
//     object's value (sum for counters, max for max registers,
//     per-component merge for snapshots, per-bucket sum for histograms),
//     given as the kind's read and fold functions, and
//   - a buffer policy: how a handle's mutations are buffered locally
//     before reaching its home shard (count batching, write elision, or
//     component elision).
//
// The kind-specific files (shard.go, maxreg.go, snapshot.go,
// histogram.go) contribute only their backends, their mutation method,
// their read and fold, and their policy row — everything else
// (construction, handle wiring, combined reads, flushes, envelope
// composition, step accounting, and the accessors every kind object
// shares) lives here once.

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
// handle flushes in O(1), not O(buckets). It lives in its slot's one
// HistHandle, whose first AddN allocates vec and touched (both nil
// until then, with nothing pending; see Histogram.Handle).
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
	b.drainLocals()
	b.tel.Trace(telemetry.TraceFlush, b.slot, v)
}

// drainLocals publishes the residues of the batched locals. Flush calls
// it even when nothing is pending: a subsumed write, or a component's
// return to its flushed value, counts an elided write and leaves
// nothing to flush, and a window handle drops an epoch's handle (and its
// locals) once it re-homes, so an undrained residue would be lost.
func (b *buffer) drainLocals() {
	if b.tel == nil {
		return
	}
	b.tel.FlushLocal(telemetry.EvBufferHit, b.slot, &b.localHits)
	b.tel.FlushLocal(telemetry.EvElidedWrite, b.slot, &b.localElided)
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

// Flush publishes the buffered state to the home shard (nothing when the
// buffer is empty) and the batched telemetry locals to the sink.
func (b *buffer) Flush() {
	switch b.policy {
	case countBatching:
		if b.pending != 0 {
			d := b.pending
			b.pending = 0
			b.flush(d)
			b.noteFlush(d)
		}
	case bucketBatching:
		b.flushBuckets()
	default:
		if b.dirty {
			b.writeThrough(b.pending)
		}
	}
	b.drainLocals()
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
// one unbuffered shard with telemetry off; the public spec layer is
// the single validation point, so Config is plain data and every kind
// reads the same three fields.
type Config struct {
	// Shards is the shard count S (0 means 1). Mutations spread across
	// shards by handle affinity; reads cost one underlying read per
	// shard, folded by the kind's fold.
	Shards int
	// Batch is the per-handle buffer B (0 means 1, unbuffered). What it
	// buffers is the kind's buffer policy: increments for counters (up
	// to B-1 per handle invisible between flushes), the write-elision
	// window for max registers and the component-elision window for
	// snapshots (readers trail by at most B-1), whole observations for
	// histograms. Bounds reports the headroom as the Buffer term.
	Batch int
	// Tel attaches an internal telemetry sink to the runtime paths
	// (flushes, buffer hits, elided writes, arena rows, and for windowed
	// objects rotations and re-homes). Nil disables instrumentation: the
	// hot paths see a single never-taken branch.
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
	// BufferScalesWithProcs reports whether the B-1 buffering headroom
	// multiplies by the slot count.
	BufferScalesWithProcs bool
}

func (p *policy[V]) row() PolicyRow {
	return PolicyRow{
		Combine:               p.name,
		Buffer:                p.buffer.String(),
		BufferScalesWithProcs: p.bufferScalesWithProcs,
	}
}

// CounterPolicyRow, MaxRegPolicyRow, SnapshotPolicyRow, and
// HistogramPolicyRow export the kinds' policy rows.
func CounterPolicyRow() PolicyRow   { return counterPolicy.row() }
func MaxRegPolicyRow() PolicyRow    { return maxRegPolicy.row() }
func SnapshotPolicyRow() PolicyRow  { return snapshotPolicy.row() }
func HistogramPolicyRow() PolicyRow { return histogramPolicy.row() }

// policy is one kind's row of the plane: how the per-shard envelope
// composes under the kind's fold (the read and fold functions its
// constructor hands newPlane), and which buffering discipline its
// handles use. The spec layer's backend table derives its rows from
// these via PolicyRow.
type policy[V any] struct {
	name   string // policy-table name: "sum", "max", "per-component"
	buffer bufferPolicy
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
}

// plane is the generic sharded object: S shards of O folded on read by
// the kind's fold, with handle-local buffering per the kind's policy.
// All S shards are built over one n-slot prim.Factory, so process slot i
// is one prim.Proc on every shard, as in the paper's model, where each
// process applies its primitives to any base object. Kind-specific
// object types embed it — inheriting N, Bounds, and BaseObjects — and
// add nothing but their Handle and its mutation method.
type plane[O, H, V any] struct {
	f        *prim.Factory
	shards   []O
	k        uint64
	batch    uint64
	be       backend[O]
	pol      *policy[V]
	handleOf func(o O, p *prim.Proc) H
	// read reads one shard into dst (scalar kinds ignore it), and fold
	// folds one shard's read into acc, a value the caller owns: a sum
	// or a max for the scalar kinds, a per-bucket sum or per-component
	// max into the caller's buffer for the vector kinds. A combined
	// read is one read and S-1 folds, and needs no buffer of its own.
	read func(h H, dst V) V
	fold func(h H, acc V) V
	// bound marks the slots that have their handle (see coreAt).
	bound []bool
	// tel is the telemetry sink the plane's moving parts report into
	// (nil when uninstrumented).
	tel *telemetry.Sink
}

// newPlane builds S shards over one n-slot factory from a configuration
// the spec layer has validated. cfg.Tel (nil when uninstrumented) is
// attached to the factory before any shard is built, so
// construction-time arena rows are counted. read and fold are the
// kind's per-shard read and fold (see plane).
func newPlane[O, H, V any](
	n int, k uint64, cfg Config, be backend[O], pol *policy[V],
	handleOf func(o O, p *prim.Proc) H, read, fold func(h H, v V) V,
) (*plane[O, H, V], error) {
	f := prim.NewFactory(n)
	f.Instrument(cfg.Tel)
	shards := make([]O, orOne(cfg.Shards))
	for s := range shards {
		o, err := be.make(f, k)
		if err != nil {
			return nil, fmt.Errorf("shard: building shard %d/%d (%s): %w", s, len(shards), be.name, err)
		}
		shards[s] = o
	}
	return &plane[O, H, V]{
		f: f, shards: shards, k: k, batch: uint64(orOne(cfg.Batch)), be: be, pol: pol,
		handleOf: handleOf, read: read, fold: fold,
		bound: make([]bool, n),
		tel:   cfg.Tel,
	}, nil
}

// N returns the number of process slots.
func (p *plane[O, H, V]) N() int { return p.f.N() }

// kindPolicy and sink hand the window tier the kind's policy row and
// the telemetry sink (see Epoch).
func (p *plane[O, H, V]) kindPolicy() *policy[V] { return p.pol }
func (p *plane[O, H, V]) sink() *telemetry.Sink  { return p.tel }

// Bounds composes the combined read envelope from the backend's
// per-shard envelope and the kind's policy row: Add widens by S iff the
// combine sums shards, and the B-1 buffering headroom multiplies by the
// slot count iff every handle's buffer can be stale at once. For a
// randomized backend the per-shard failure probabilities compose by
// union bound: a combined read is in range whenever every one of the S
// shard reads is, so Delta = min(1, S * delta_shard). The package
// comment derives each kind's composition.
func (p *plane[O, H, V]) Bounds() Bounds {
	b := Bounds{Mult: p.be.multOf(p.k), Add: p.be.addOf(p.k)}
	if p.pol.addScalesWithShards {
		b.Add = satmath.Mul(uint64(len(p.shards)), b.Add)
	}
	b.Buffer = p.batch - 1
	if p.pol.bufferScalesWithProcs {
		b.Buffer = satmath.Mul(b.Buffer, uint64(p.N()))
	}
	if p.be.delta > 0 {
		b.Delta = min(1, float64(len(p.shards))*p.be.delta)
	}
	return b
}

// BaseObjects returns the number of resident base objects (registers,
// TAS cells) across all shards — the plane's space cost in the paper's
// model, where space is counted in base objects. Lazily allocated
// structures (the unbounded switch sequences and helping rows of
// Algorithm 1, the tree nodes and epoch registers of the max registers,
// the histograms' per-slot bucket rows) count what writes have
// materialized, not what they reserve, so the number grows with the
// execution and reads never move it. Windowed objects sum
// it over their epoch ring; the frontier bench (E19) uses it to compare
// deterministic and randomized state at equal target error.
func (p *plane[O, H, V]) BaseObjects() uint64 { return p.f.Resident() }

// coreAt binds process slot i to its home shard i mod S and returns the
// shared handle core: the home shard's handle through the slot's one
// proc, and the policy's buffer (whose flush function the kind-specific
// handle wires to its home-shard mutation). The slot's readers on the
// other shards are bound by its first combined read (see
// handleCore.shardReaders), so a slot that only writes, or only reads
// through a read cache, holds one shard handle. A slot binds once. Its
// shard handles hold the paper's per-process local state (a sequence
// number, a counter's own leaf, an elision anchor), which a second set
// would restart from zero, so a second binding of one slot panics:
// callers keep the slot's one handle (the public layer's slot pool
// does). Distinct slots may bind concurrently (they touch distinct
// entries).
func (p *plane[O, H, V]) coreAt(i int) handleCore[O, H, V] {
	if p.bound[i] {
		panic(fmt.Sprintf("shard: slot %d is already bound; a slot has one handle", i))
	}
	p.bound[i] = true
	proc := p.f.Proc(i)
	return handleCore[O, H, V]{
		p:    p,
		home: p.handleOf(p.shards[i%len(p.shards)], proc),
		proc: proc,
		buf:  buffer{policy: p.pol.buffer, batch: p.batch, tel: p.tel, slot: i},
	}
}

// handleCore is the shared per-slot handle core every kind's handle embeds:
// its plane, the home shard's handle (i mod S: a handle's mutations all
// land on one shard, keeping its cache traffic within that shard's base
// objects), the per-shard readers once the slot has read, the buffer,
// and step accounting, all through the slot's one proc. The
// kind-specific handle adds only its mutation method (Inc, Write,
// Update) over buf.add.
type handleCore[O, H, V any] struct {
	p       *plane[O, H, V]
	home    H
	readers []H // one per shard, home included; nil until the first combined read
	proc    *prim.Proc
	buf     buffer
}

// shardReaders returns the slot's per-shard readers, binding its
// non-home shards on the first call: shard handles carry per-process
// read state (Algorithm 1's last_i and help_i, a snapshot's collect
// buffers), which a slot that never reads should not hold.
func (c *handleCore[O, H, V]) shardReaders() []H {
	if c.readers == nil {
		p := c.p
		home := c.proc.ID() % len(p.shards)
		c.readers = make([]H, len(p.shards))
		for s, o := range p.shards {
			if s == home {
				c.readers[s] = c.home
			} else {
				c.readers[s] = p.handleOf(o, c.proc)
			}
		}
	}
	return c.readers
}

// Read returns the object's combined value: one read of every shard,
// folded with the kind's fold — O(S). The result is inside the
// envelope the object's Bounds describes, relative to the regularity
// window of the package comment. For vector-valued kinds the slice is
// fresh (owned by the caller); reuse a buffer across reads with
// ReadInto instead.
func (c *handleCore[O, H, V]) Read() V {
	var zero V
	return c.ReadInto(zero)
}

// ReadInto is Read with the result written into dst (grown as needed;
// scalar kinds ignore it): the first shard reads into dst and every
// later shard folds into it, so a steady-state combine allocates
// nothing and holds no buffer beside the caller's.
func (c *handleCore[O, H, V]) ReadInto(dst V) V {
	rs := c.shardReaders()
	dst = c.p.read(rs[0], dst)
	for _, r := range rs[1:] {
		dst = c.p.fold(r, dst)
	}
	return dst
}

// FoldInto folds the handle's combined read, every shard's read as
// ReadInto takes them, into acc and returns it: a window's step per
// epoch after the first.
func (c *handleCore[O, H, V]) FoldInto(acc V) V {
	for _, r := range c.shardReaders() {
		acc = c.p.fold(r, acc)
	}
	return acc
}

// Flush publishes any handle-locally buffered mutations to the home
// shard. It is a no-op when the buffer is empty.
func (c *handleCore[O, H, V]) Flush() { c.buf.Flush() }

// Pending returns the handle's buffered state (diagnostic): buffered
// increments for counters, the total pending observation count across
// all buckets for histograms, the pending elided value (0 when none)
// for max registers and snapshots.
func (c *handleCore[O, H, V]) Pending() uint64 { return c.buf.Pending() }

// Steps returns the shared-memory steps this handle's process slot has
// taken across all shards.
func (c *handleCore[O, H, V]) Steps() uint64 { return c.proc.Steps() }
