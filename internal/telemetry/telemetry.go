// Package telemetry is the plane's self-instrumentation sink: a
// low-overhead event counter the runtime layers (prim, pool, shard)
// report into, read back out by the public SelfMetrics surface as
// ordinary approximate objects.
//
// The design applies the repository's own thesis to its instrumentation
// (the Matias–Vitter–Young argument: internal event counts do not need
// exactness): counts are striped across padded cells like a sharded
// counter, the hottest per-operation events are batched in plain
// handle-local integers and published every CounterBatch events, and the
// resulting inaccuracy is not hidden — it is the Buffer term of the
// meters' own Bounds envelope (see LagBound), rendered as _bound
// companion series by package expose like any user object's.
//
// The disabled state is a nil *Sink. Every method is nil-receiver-safe,
// so instrumented call sites in cold paths call unconditionally; hot
// paths guard with a single `if tel != nil` branch, mirroring the
// nil-gate fast path of internal/prim (PR 9), so disabled
// instrumentation costs one predicted-not-taken branch and zero
// allocations.
//
// The package imports only the standard library, so every layer —
// including internal/prim at the bottom of the dependency order — can
// report into it without an import cycle.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Event enumerates the runtime events the sink counts. The set mirrors
// the plane's moving parts layer by layer: buffer-policy activity and
// flushes (internal/shard/plane.go), read-cache traffic and refreshes
// (readcache.go), pool handle churn (handlepool.go), window rotation
// (window.go), and arena residency (internal/prim/arena.go).
type Event uint8

const (
	// EvFlush: a handle buffer published its pending state to the shards
	// (any buffer policy; batch expiry, write-through, or explicit Flush).
	EvFlush Event = iota
	// EvBufferHit: a write was absorbed by a handle-local buffer instead
	// of reaching the shards (count batching and bucket batching).
	EvBufferHit
	// EvElidedWrite: a write was elided entirely by an elision policy
	// (max-register subsumption or window headroom, snapshot component
	// elision) — never published, by design.
	EvElidedWrite
	// EvCacheRead: a read went through the read cache (hits are the
	// reads that found a fresh cell on the O(1) path: reads minus
	// misses).
	EvCacheRead
	// EvCacheMiss: a read found the cached cell stale or unfilled and
	// fell through to the refresh lock.
	EvCacheMiss
	// EvInlineRefresh: a reader re-combined the cell itself (the only
	// way the cell is refreshed), rather than finding it refreshed by
	// another reader by the time it held the lock.
	EvInlineRefresh
	// EvPoolAcquire: a slot was leased from a handle pool (Acquire or a
	// successful TryAcquire).
	EvPoolAcquire
	// EvPoolTryFail: a TryAcquire found no free slot.
	EvPoolTryFail
	// EvRotation: a windowed object rotated an epoch out of the ring.
	EvRotation
	// EvRehome: a windowed handle re-bound its core to a fresh epoch
	// (first write after a rotation).
	EvRehome
	// EvArenaRow: a base-object arena row was allocated.
	EvArenaRow

	// NumEvents sizes per-event arrays; keep it last.
	NumEvents
)

// CounterBatch is the publication batch of BumpLocal: hot per-operation
// events accumulate in a plain handle-local integer and publish to the
// striped counters every CounterBatch events. Each handle-local
// accumulator can therefore lag the striped total by at most
// CounterBatch-1 events — the Buffer term LagBound reports.
const CounterBatch = 256

// stripeCount is the number of padded counter stripes events spread
// over. Writers pick a stripe by a caller-supplied hint (their slot),
// so concurrent handles on different slots touch different cache lines.
const stripeCount = 8

// stripe is one padded bank of per-event counters. NumEvents uint64
// cells are 88 bytes; the pad rounds the struct to 128 — the same
// false-sharing stride the base-object arenas use — so neighboring
// stripes never share a cache line.
type stripe struct {
	v [NumEvents]atomic.Uint64
	_ [128 - 8*NumEvents]byte
}

// TraceEvent enumerates the sampled trace hook's event kinds — the
// coarse structural events worth a callback, not the per-operation
// counts (those are meters).
type TraceEvent uint8

const (
	// TraceFlush: a handle buffer flushed; value is the flushed amount.
	TraceFlush TraceEvent = iota
	// TraceRefresh: a read-cache cell was re-combined; slot is -1 (the
	// cache is per-object, not per-slot), value is the combined scalar
	// (or the vector length for vector kinds).
	TraceRefresh
	// TraceRotation: a windowed object rotated; value is the new epoch
	// sequence number.
	TraceRotation
	// TraceAcquire: a pool slot was leased; slot is the leased slot.
	TraceAcquire
)

// TraceFunc receives sampled trace events. It is called synchronously
// on the event's goroutine (sampled 1 in 2^k — see Sink.SetTrace), so
// implementations should be cheap and must not call back into the
// object being traced.
type TraceFunc func(ev TraceEvent, slot int, value uint64)

// Sink is the event sink one telemetry domain shares: striped
// approximate counters per event, a refresh-latency high-water mark,
// the lag accounting behind the meters' Buffer envelope, an optional
// sampled trace hook, and a set of pull gauges for resident bytes.
//
// The nil *Sink is the disabled sink: every method is a no-op (a
// single nil check), so call sites need no configuration branches.
// A non-nil Sink is safe for concurrent use by any number of
// goroutines; SetTrace is configuration and must happen before the sink
// is shared. RegisterResident may be called at any time (every
// instrumented build calls it on a live sink), under mu.
type Sink struct {
	stripes [stripeCount]stripe

	// refreshNs is the high-water mark of read-cache refresh latency in
	// nanoseconds, maintained by a CAS-max loop (a max register, the
	// second of the paper's object families, in miniature).
	refreshNs atomic.Uint64

	// lagUnits counts the handle-local accumulators that may hold
	// unpublished BumpLocal events — one unit per process slot of each
	// instrumented object. LagBound derives the meters' Buffer term
	// from it.
	lagUnits atomic.Uint64

	// traceFn/traceMask implement the sampled trace hook: an event
	// fires the hook iff the next SplitMix64 output has all traceMask
	// bits clear — probability 1/2^k for mask 2^k-1. traceState is the
	// shared generator state, advanced atomically (the Weyl sequence
	// step IS the atomic add, so concurrent tracers draw distinct
	// outputs).
	traceFn    TraceFunc
	traceMask  uint64
	traceState atomic.Uint64

	mu       sync.Mutex
	resident []func() (uint64, bool)
}

// New returns an enabled, empty sink.
func New() *Sink { return &Sink{} }

// SetTrace installs the sampled trace hook: fn fires for roughly 1 in
// 2^sampleShift trace events (sampleShift 0 fires on every event).
// Configuration only — call before the sink is shared.
func (s *Sink) SetTrace(fn TraceFunc, sampleShift uint) {
	if s == nil {
		return
	}
	if sampleShift > 63 {
		sampleShift = 63
	}
	s.traceFn = fn
	s.traceMask = 1<<sampleShift - 1
}

// Inc counts one occurrence of e. hint selects the counter stripe —
// callers pass their slot so concurrent writers spread over stripes;
// any value is valid.
func (s *Sink) Inc(e Event, hint int) {
	if s == nil {
		return
	}
	s.stripes[uint(hint)%stripeCount].v[e].Add(1)
}

// Total returns the published count of e, folded across stripes. It
// excludes events still parked in BumpLocal accumulators — at most
// LagBound() of them, which is exactly the meters' Buffer envelope.
func (s *Sink) Total(e Event) uint64 {
	if s == nil {
		return 0
	}
	var t uint64
	for i := range s.stripes {
		t += s.stripes[i].v[e].Load()
	}
	return t
}

// BumpLocal counts one occurrence of e into the caller's plain local
// accumulator, publishing (and resetting) it once it reaches
// CounterBatch. This is the hot-path counting primitive: the common
// case is one register increment and one compare, no atomics.
func (s *Sink) BumpLocal(e Event, hint int, local *uint64) {
	if s == nil {
		return
	}
	*local++
	if *local >= CounterBatch {
		s.stripes[uint(hint)%stripeCount].v[e].Add(*local)
		*local = 0
	}
}

// FlushLocal publishes a BumpLocal accumulator's residue, if any.
// Buffers call it whenever they flush their own pending state, so the
// meters' lag tracks the objects' lag.
func (s *Sink) FlushLocal(e Event, hint int, local *uint64) {
	if s == nil || *local == 0 {
		return
	}
	s.stripes[uint(hint)%stripeCount].v[e].Add(*local)
	*local = 0
}

// ObserveRefresh folds a read-cache refresh latency into the high-water
// mark (CAS-max).
func (s *Sink) ObserveRefresh(d time.Duration) {
	if s == nil || d <= 0 {
		return
	}
	v := uint64(d)
	for {
		cur := s.refreshNs.Load()
		if v <= cur || s.refreshNs.CompareAndSwap(cur, v) {
			return
		}
	}
}

// RefreshHighWaterNs returns the refresh-latency high-water mark in
// nanoseconds.
func (s *Sink) RefreshHighWaterNs() uint64 {
	if s == nil {
		return 0
	}
	return s.refreshNs.Load()
}

// AddLagUnits records n more handle-local accumulators feeding this
// sink (one per process slot of a newly instrumented object).
func (s *Sink) AddLagUnits(n int) {
	if s == nil || n <= 0 {
		return
	}
	s.lagUnits.Add(uint64(n))
}

// LagBound is the Buffer term of the lag-batched meters' envelope: at
// most CounterBatch-1 unpublished events per handle-local accumulator.
// Like a batched counter's (B-1)·n term, it is configured accounting,
// not a measurement.
func (s *Sink) LagBound() uint64 {
	if s == nil {
		return 0
	}
	return (CounterBatch - 1) * s.lagUnits.Load()
}

// RegisterResident adds a pull gauge contributing to ResidentBytes
// (one per instrumented object, reporting its base-object bytes). The
// gauge reports ok = false once its object is gone; it should hold the
// object weakly, so that the sink does not keep it alive.
func (s *Sink) RegisterResident(fn func() (bytes uint64, ok bool)) {
	if s == nil || fn == nil {
		return
	}
	s.mu.Lock()
	s.resident = append(s.resident, fn)
	s.mu.Unlock()
}

// ResidentBytes sums the registered residency gauges, dropping every
// gauge whose object is gone.
func (s *Sink) ResidentBytes() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var t uint64
	live := s.resident[:0]
	for _, fn := range s.resident {
		if b, ok := fn(); ok {
			t += b
			live = append(live, fn)
		}
	}
	clear(s.resident[len(live):])
	s.resident = live
	return t
}

// Gauges returns the number of residency gauges registered and not yet
// dropped by ResidentBytes.
func (s *Sink) Gauges() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.resident)
}

// Trace offers a trace event to the sampled hook. With no hook
// installed it is two loads and a return; with one, it advances the
// shared SplitMix64 stream one step and fires the hook iff the output's
// low sampleShift bits are all zero — an unbiased 1/2^k sample that
// costs one atomic add per offered event.
func (s *Sink) Trace(ev TraceEvent, slot int, value uint64) {
	if s == nil || s.traceFn == nil {
		return
	}
	// SplitMix64: the golden-gamma Weyl step is the atomic add, so
	// concurrent callers draw distinct outputs from the shared stream.
	z := s.traceState.Add(0x9E3779B97F4A7C15)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	if z&s.traceMask != 0 {
		return
	}
	s.traceFn(ev, slot, value)
}
