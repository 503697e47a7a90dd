package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"approxobj/internal/satmath"
	"approxobj/internal/telemetry"
)

// This file is the windowed tier of the backend plane: an object becomes
// a small ring of plane instances ("epochs") rotated on a fixed period,
// so reads answer over the last d of mutations instead of
// since-creation. The construction reuses everything below it — each
// epoch is an ordinary kind object with its own shards and buffers —
// and everything above it: writers stamp into the current epoch through
// the kind's existing handle plumbing, and reads fold the live ring
// with the kind's existing fold, so the per-epoch accuracy envelope
// carries over to the window with only the documented widenings (Add x
// epochs for sum-combines; a one-epoch truncation skew, the Window term
// of Bounds).
//
// # Rotation
//
// The ring holds `epochs` instances; a background rotator goroutine
// advances the sequence number every d/epochs. Rotation is
// install-then-publish: the fresh epoch is swapped into the ring slot
// the new sequence number maps to BEFORE the sequence number is
// published, so a writer that loads the new sequence number always
// finds the new epoch installed, and a writer holding the old one
// writes into the previous epoch — still live in the ring for
// epochs >= 2. Writes therefore land in the epoch current when the
// handle resolved the ring, or an adjacent newer one; never in an
// unreachable instance, and never lost from the live window. The
// evicted instance (from `epochs` rotations ago) leaves the ring but
// stays readable for any reader that loaded its pointer just before the
// swap; it holds no goroutine, so nothing needs stopping.
//
// # Handles
//
// A window handle caches one kind handle per ring slot, re-homing
// lazily: it rebinds a slot's handle when the installed epoch's
// sequence number changed, flushing the outgoing handle's buffered
// mutations into its own epoch first (they happened during that epoch's
// span, so that is where they belong — and for a live epoch they stay
// visible to windowed reads). The handle also flushes its previous
// write slot whenever the current ring slot moves, so at any moment at
// most ONE of its cached handles holds buffered mutations — which is
// why the Buffer term of the windowed envelope equals the per-epoch
// one, not epochs times it.
//
// # Reads
//
// A windowed read folds one combined read of every ring slot with the
// kind's fold, straight into the caller's buffer: the first epoch reads
// into it and every later epoch's shards fold into it, so the window
// holds no read buffer of its own. A handle binds an epoch's handle
// only when it first writes or reads there, and that handle binds its
// readers only when it first reads. Every live epoch holds a disjoint
// share of the window's mutations, so the same composition arguments as
// sharding apply: a sum of per-epoch k-multiplicative counts is
// k-multiplicative, per-epoch additive slack sums (Add x epochs), max
// and per-component merges widen nothing. The fold visits the ring
// racing rotation, so a read may miss the epoch being evicted and see
// the fresh one empty: at most one epoch (d/epochs) of truncation skew,
// reported as the Window term of Bounds.

// EpochHandle is what the ring needs of a kind handle: the combined
// read into a reused buffer (scalar kinds ignore the buffer), the same
// read folded into an accumulator the caller owns, Flush, and step
// accounting. Every kind handle has them through its handle core.
type EpochHandle[V any] interface {
	ReadInto(dst V) V
	FoldInto(acc V) V
	Flush()
	Steps() uint64
}

// Epoch is what the ring needs of one epoch instance: the kind object's
// Handle plus the plane accessors every kind carries, including its
// policy row (whose envelope composition the window widens) and its
// telemetry sink.
// Counter, MaxReg, Snapshot, and Histogram satisfy it.
type Epoch[H EpochHandle[V], V any] interface {
	Handle(i int) H
	Bounds() Bounds
	BaseObjects() uint64
	kindPolicy() *policy[V]
	sink() *telemetry.Sink
}

// wepoch is one ring entry: a kind object and the rotation sequence
// number under which it was installed.
type wepoch[T any] struct {
	seq uint64
	obj T
}

// Window is the generic epoch ring, the one windowed object type of
// every kind. T is the kind object (*Counter, *MaxReg, ...), H its
// handle type, V the combined-read value. Only mk, which builds one
// fresh epoch, is a function; everything else the ring needs comes from
// the methods of T and H.
type Window[T Epoch[H, V], H EpochHandle[V], V any] struct {
	dur    time.Duration
	epochs int
	mk     func() (T, error)

	// pol is the kind's policy row: addScalesWithShards says per-epoch
	// additive slack sums over the ring.
	pol *policy[V]
	// tel is the epochs' telemetry sink (nil when uninstrumented):
	// rotations and handle re-homes are window-tier events the
	// per-epoch planes cannot see.
	tel *telemetry.Sink

	// seq is published AFTER the epoch for it is installed in the ring,
	// so ring[seq%epochs] always holds an instance at least as new as
	// seq.
	seq  atomic.Uint64
	ring []atomic.Pointer[wepoch[T]]

	mu     sync.Mutex // serializes rotate, reset, and close
	closed bool

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewWindow builds a windowed object: a ring of `epochs` instances of
// mk, rotated every d/epochs, for d > 0 and epochs >= 2 (the spec layer
// checks both). All epochs are pre-installed, so the very first read
// folds a full window of empty instances, and the rotator goroutine is
// running; stop it with Close.
func NewWindow[T Epoch[H, V], H EpochHandle[V], V any](d time.Duration, epochs int, mk func() (T, error)) (*Window[T, H, V], error) {
	w := &Window[T, H, V]{dur: d, epochs: epochs, mk: mk, ring: make([]atomic.Pointer[wepoch[T]], epochs)}
	for j := 0; j < epochs; j++ {
		obj, err := mk()
		if err != nil {
			return nil, err
		}
		w.ring[j].Store(&wepoch[T]{seq: uint64(j), obj: obj})
	}
	first := w.ring[0].Load().obj
	w.pol, w.tel = first.kindPolicy(), first.sink()
	w.seq.Store(uint64(epochs - 1))
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	go w.run()
	return w, nil
}

// run is the rotator loop: one rotation every d/epochs.
func (w *Window[T, H, V]) run() {
	defer close(w.done)
	t := time.NewTicker(w.dur / time.Duration(w.epochs))
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.Rotate()
		}
	}
}

// Rotate installs a fresh epoch and evicts the oldest: install into the
// new sequence number's ring slot first, publish the sequence number
// second. The rotator calls it every d/epochs; tests and manual epoch
// control call it directly (the windowed conformance sweeps drive
// epochs by hand instead of sleeping through wall-clock rotations).
// After Close it is a no-op (the window is frozen). A kind construction
// that cannot fail built the ring, so mk cannot fail here either; a
// failure is surfaced by keeping the current window (no rotation)
// rather than poisoning the ring.
func (w *Window[T, H, V]) Rotate() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	fresh, err := w.mk()
	if err != nil {
		return
	}
	s := w.seq.Load() + 1
	w.ring[s%uint64(w.epochs)].Store(&wepoch[T]{seq: s, obj: fresh})
	w.seq.Store(s)
	w.tel.Inc(telemetry.EvRotation, 0)
	w.tel.Trace(telemetry.TraceRotation, -1, s)
}

// Reset replaces every live epoch with a fresh instance — the
// go-metrics Snapshot(reset) idiom. It is NOT atomic with a preceding
// read: mutations racing the reset land in an epoch that is either
// kept (the tail of the replacement loop) or discarded with the window,
// exactly like mutations racing a rotation land on either side of it.
// After Close, Reset returns an error (the window is frozen).
func (w *Window[T, H, V]) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("shard: Reset on a closed windowed object (the window is frozen)")
	}
	fresh := make([]T, w.epochs)
	for i := range fresh {
		obj, err := w.mk()
		if err != nil {
			return err
		}
		fresh[i] = obj
	}
	s := w.seq.Load()
	for i := 1; i <= w.epochs; i++ {
		ns := s + uint64(i)
		w.ring[ns%uint64(w.epochs)].Store(&wepoch[T]{seq: ns, obj: fresh[i-1]})
	}
	w.seq.Store(s + uint64(w.epochs))
	return nil
}

// Close stops the rotator goroutine and waits for it to exit, freezing
// the window: no further aging, reads keep serving the frozen ring,
// writes keep landing in the frozen current epoch, and Reset returns an
// error. Idempotent.
func (w *Window[T, H, V]) Close() {
	w.once.Do(func() {
		close(w.stop)
		<-w.done
		w.mu.Lock()
		w.closed = true
		w.mu.Unlock()
	})
}

// Bounds composes the windowed envelope from the per-epoch one: Add
// widens by the epoch count iff the kind's fold sums (per-epoch
// slack accumulates over the fold, exactly like per-shard slack under a
// sum), Buffer is unchanged (a handle holds buffered mutations in at
// most one epoch at a time — see the handle comment), and Window
// carries the one-epoch truncation skew d/epochs. Delta widens by the
// epoch count regardless of the combine (union bound: the windowed read
// is in range when every one of the `epochs` per-epoch combined reads
// is, whatever the fold), clamped at 1.
func (w *Window[T, H, V]) Bounds() Bounds {
	b := w.ring[w.seq.Load()%uint64(w.epochs)].Load().obj.Bounds()
	if w.pol.addScalesWithShards {
		b.Add = satmath.Mul(b.Add, uint64(w.epochs))
	}
	if b.Delta > 0 {
		b.Delta = min(1, b.Delta*float64(w.epochs))
	}
	b.Window = w.dur / time.Duration(w.epochs)
	return b
}

// BaseObjects sums the base objects of every live epoch — the windowed
// object's space cost in the paper's model at this instant (rotation
// replaces epochs, so the total is steady-state, not cumulative).
func (w *Window[T, H, V]) BaseObjects() uint64 {
	var total uint64
	for j := range w.ring {
		total += w.ring[j].Load().obj.BaseObjects()
	}
	return total
}

// Handle binds process slot i to the window. A slot has one window
// handle: a second would bind the slot again in an epoch the first has
// bound, which panics (see coreAt). The kinds' windowed handle types
// (WCounterHandle, ...) wrap it to add their mutation.
func (w *Window[T, H, V]) Handle(i int) *WindowHandle[T, H, V] {
	return &WindowHandle[T, H, V]{w: w, slot: i, cores: make([]windowCore[H], w.epochs), lastWrite: -1}
}

// windowCore is one cached per-ring-slot kind handle.
type windowCore[H any] struct {
	seq uint64
	h   H
	ok  bool
}

// WindowHandle is the per-slot handle over the ring: cached kind
// handles per ring slot, lazy re-homing, and steps accounting across
// rebinds. Like every handle in this repository it must be used by a
// single goroutine; rotation happens on another goroutine but
// communicates only through the ring's atomics.
type WindowHandle[T Epoch[H, V], H EpochHandle[V], V any] struct {
	w     *Window[T, H, V]
	slot  int
	cores []windowCore[H]
	// lastWrite is the ring slot of the most recent mutation, so moving
	// to a new current slot flushes the previous one's buffer first:
	// buffered mutations live in at most one cached handle at a time.
	lastWrite int
	// retired accumulates the steps of rebound (dropped) cores, keeping
	// Steps monotone across epochs.
	retired uint64
}

// core returns the cached kind handle for ring slot j's installed epoch
// e, rebinding (flush old, bind new) when the slot was rotated under
// it.
func (h *WindowHandle[T, H, V]) core(j int, e *wepoch[T]) H {
	c := &h.cores[j]
	if !c.ok || c.seq != e.seq {
		if c.ok {
			c.h.Flush()
			h.retired += c.h.Steps()
			h.w.tel.Inc(telemetry.EvRehome, h.slot)
		}
		c.h = e.obj.Handle(h.slot)
		c.seq = e.seq
		c.ok = true
	}
	return c.h
}

// cur resolves the current epoch's handle for a mutation, flushing the
// previous write slot when the current ring slot moved. The epoch
// loaded may be newer than the sequence number read (a rotation
// in-flight); either is live, so the mutation is never lost.
func (h *WindowHandle[T, H, V]) cur() H {
	j := int(h.w.seq.Load() % uint64(h.w.epochs))
	if h.lastWrite >= 0 && h.lastWrite != j && h.cores[h.lastWrite].ok {
		h.cores[h.lastWrite].h.Flush()
	}
	h.lastWrite = j
	return h.core(j, h.w.ring[j].Load())
}

// Read folds one combined read of every live epoch with the kind's
// fold. For vector kinds the slice is fresh (owned by the caller);
// reuse a buffer with ReadInto.
func (h *WindowHandle[T, H, V]) Read() V {
	var zero V
	return h.ReadInto(zero)
}

// ReadInto is Read into a reused buffer (scalar kinds ignore it): the
// first epoch reads into dst and every later epoch folds into it, as in
// the shard fold, so a steady-state windowed read through one handle
// allocates nothing and the handle keeps no fold buffer.
func (h *WindowHandle[T, H, V]) ReadInto(dst V) V {
	dst = h.core(0, h.w.ring[0].Load()).ReadInto(dst)
	for j := 1; j < h.w.epochs; j++ {
		dst = h.core(j, h.w.ring[j].Load()).FoldInto(dst)
	}
	return dst
}

// Flush publishes every cached epoch handle's buffered mutations.
func (h *WindowHandle[T, H, V]) Flush() {
	for j := range h.cores {
		if h.cores[j].ok {
			h.cores[j].h.Flush()
		}
	}
}

// Steps returns the handle's cumulative shared-memory steps: retired
// cores plus every live cached handle. Monotone across rebinds (fresh
// epoch handles start at zero and retired only grows).
func (h *WindowHandle[T, H, V]) Steps() uint64 {
	s := h.retired
	for j := range h.cores {
		if h.cores[j].ok {
			s += h.cores[j].h.Steps()
		}
	}
	return s
}

// The kinds' windowed handles: a WindowHandle (Read, ReadInto, Flush,
// Steps) plus the kind's one mutation, landing in the current epoch.
// Each is a single pointer, so storing one in an interface allocates
// nothing.

// WCounterHandle is one process's view of a windowed counter: Incs land
// in the current epoch, Reads sum the live ring (saturating).
type WCounterHandle struct {
	*WindowHandle[*Counter, *Handle, uint64]
}

// Inc adds one to the current epoch.
func (h WCounterHandle) Inc() { h.cur().Inc() }

// WMaxRegHandle is one process's view of a windowed max register:
// Writes land in the current epoch, Reads take the max over the live
// ring — a running high-water mark that expires.
type WMaxRegHandle struct {
	*WindowHandle[*MaxReg, *MaxRegHandle, uint64]
}

// Write records v in the current epoch.
func (h WMaxRegHandle) Write(v uint64) { h.cur().Write(v) }

// WSnapshotHandle is one process's view of a windowed snapshot, the
// single writer of component i: Updates land in the current epoch, and
// a scan merges the live ring per component with the snapshot's
// element-wise max, so each component reads as its high-water mark over
// the window (a component untouched for a full window reads zero). Like
// SnapshotHandle it names its reads Scan and ScanInto.
type WSnapshotHandle struct {
	*WindowHandle[*Snapshot, *SnapshotHandle, []uint64]
}

// Update sets this handle's component in the current epoch.
func (h WSnapshotHandle) Update(v uint64) { h.cur().Update(v) }

func (h WSnapshotHandle) Scan() []uint64                 { return h.Read() }
func (h WSnapshotHandle) ScanInto(dst []uint64) []uint64 { return h.ReadInto(dst) }
func (h WSnapshotHandle) Component() int                 { return h.slot }

// WHistHandle is one process's view of a windowed histogram:
// observations land in the current epoch, bucket reads sum the live
// ring per bucket — so every query at the public layer answers over the
// last window of observations.
type WHistHandle struct {
	*WindowHandle[*Histogram, *HistHandle, []uint64]
}

// AddN adds d observations to bucket b of the current epoch.
func (h WHistHandle) AddN(b int, d uint64) { h.cur().AddN(b, d) }
