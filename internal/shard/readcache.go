package shard

import (
	"sync"
	"sync/atomic"
	"time"

	"approxobj/internal/telemetry"
)

// This file is the read-combiner tier of the backend plane: one
// pre-combined cell per plane instance, so a cached Read returns the
// cell's value in O(1) — independent of the shard count S and, for
// vector kinds, of how the combine folds — instead of paying one
// underlying read per shard. The price is freshness: the cell may be up
// to maxStale old, which plane.Bounds reports as the envelope's Stale
// term (the same accuracy-for-speed trade batching makes in the rank
// domain, moved to the time domain).
//
// The cell is refreshed two ways, whichever happens first:
//
//   - a background combiner goroutine, bound to the plane's reserved
//     combiner slot (the last slot), re-combines every maxStale/2, so
//     steady-state readers virtually always hit a fresh cell; and
//   - a read-triggered inline refresh: a reader finding the cell stale
//     (or never filled — a brand-new object) re-combines through its own
//     per-shard readers under the refresh lock and publishes the result.
//     This keeps the staleness bound unconditional — it holds even if
//     the combiner goroutine is descheduled — and makes the very first
//     read of an empty object return the empty value, never a sentinel.
//
// The cell is stamped with the time the refreshing combined read
// STARTED, so "fresh" means "the underlying combined read began at most
// maxStale ago": the value obeys the object's envelope against the
// regularity window of that underlying read, which opened at most
// maxStale before the cached read began.
//
// Serving is zero-allocation in steady state. The scalar cache
// publishes the cell as a (value, stamp) atomic pair — no cell object,
// no clone — and the vector cache double-buffers two cells, recycling
// the retired one as the next refresh's write buffer (guarded by a
// reader refcount) and copying out into the caller's reused buffer.
// The refresh function itself reads into a reusable scratch
// (handleCore.combinedInto), so neither background nor inline refreshes
// allocate once the buffers exist.

// readCache is a plane's read-combiner tier: scalarReadCache for
// uint64-valued kinds, vecReadCache for []uint64-valued ones. refresh
// is always the reading handle's combinedInto — a combined read through
// that handle's own per-shard readers into a reused buffer (the
// argument; scalar kinds ignore it).
type readCache[V any] interface {
	// readInto returns the cached combined value, refreshing inline
	// through refresh when the cell is stale. The vector cache writes it
	// into dst (grown as needed), the scalar cache ignores dst; the
	// result is owned by the caller.
	readInto(dst V, refresh func(V) V) V
	// run is the background combiner loop; one goroutine per plane,
	// stopped by close.
	run(refresh func(V) V)
	// close stops the background combiner and waits for it to exit.
	// Idempotent; reads remain valid after close (they fall back to
	// inline refreshes).
	close()
	// staleness returns the maxStale window.
	staleness() time.Duration
	// instrument attaches a telemetry sink (nil disables); called once
	// at plane construction, before the cache is shared.
	instrument(tel *telemetry.Sink)
}

// cacheLifecycle is the background-combiner lifecycle shared by both
// cache implementations.
type cacheLifecycle struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

func newCacheLifecycle() cacheLifecycle {
	return cacheLifecycle{stop: make(chan struct{}), done: make(chan struct{})}
}

// runTicks drives tick every maxStale/2 (so a reader racing the ticker
// still finds a fresh cell) until close.
func (lc *cacheLifecycle) runTicks(maxStale time.Duration, tick func()) {
	defer close(lc.done)
	period := maxStale / 2
	if period <= 0 {
		period = maxStale
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-lc.stop:
			return
		case <-t.C:
			tick()
		}
	}
}

func (lc *cacheLifecycle) close() {
	lc.once.Do(func() {
		close(lc.stop)
		<-lc.done
	})
}

// scalarReadCache is the uint64 cache: the cell is a (value, stamp)
// atomic pair, so a fresh hit is two atomic loads and one monotonic
// clock read — no cell object, no allocation. stamp is nanoseconds
// since base at which the refreshing combined read started (0 = never
// filled). The refresher stores value THEN stamp; readers load stamp
// THEN value — so the value paired with a passing stamp is never older
// than the combined read that stamp describes (it may be newer, which
// only tightens the staleness bound).
type scalarReadCache struct {
	maxStale time.Duration
	base     time.Time
	val      atomic.Uint64
	stamp    atomic.Int64

	mu sync.Mutex // serializes refreshes
	lc cacheLifecycle

	tel *telemetry.Sink // nil when uninstrumented
}

func newScalarReadCache(maxStale time.Duration) readCache[uint64] {
	return &scalarReadCache{maxStale: maxStale, base: time.Now(), lc: newCacheLifecycle()}
}

func (rc *scalarReadCache) fresh() (uint64, bool) {
	s := rc.stamp.Load()
	if s == 0 || time.Since(rc.base)-time.Duration(s) > rc.maxStale {
		return 0, false
	}
	return rc.val.Load(), true
}

func (rc *scalarReadCache) readInto(_ uint64, refresh func(uint64) uint64) uint64 {
	if v, ok := rc.fresh(); ok {
		return v
	}
	rc.tel.Inc(telemetry.EvCacheMiss, 0)
	rc.mu.Lock()
	// Another reader (or the combiner) may have refreshed while we
	// waited for the lock.
	v, ok := rc.fresh()
	if !ok {
		rc.tel.Inc(telemetry.EvInlineRefresh, 0)
		v = rc.refreshLocked(refresh)
	}
	rc.mu.Unlock()
	return v
}

// refreshLocked re-combines and publishes the cell. Callers hold rc.mu.
// The stamp is taken before the combined read starts, so a cell that
// passes the freshness check is backed by a combined read that started
// within the staleness window.
func (rc *scalarReadCache) refreshLocked(refresh func(uint64) uint64) uint64 {
	at := time.Since(rc.base)
	if at <= 0 {
		at = 1
	}
	v := refresh(0)
	rc.val.Store(v)
	rc.stamp.Store(int64(at))
	if rc.tel != nil {
		rc.tel.ObserveRefresh(time.Since(rc.base) - at)
		rc.tel.Trace(telemetry.TraceRefresh, -1, v)
	}
	return v
}

func (rc *scalarReadCache) run(refresh func(uint64) uint64) {
	rc.lc.runTicks(rc.maxStale, func() {
		rc.tel.Inc(telemetry.EvCombinerTick, 0)
		rc.mu.Lock()
		rc.refreshLocked(refresh)
		rc.mu.Unlock()
	})
}

func (rc *scalarReadCache) close() { rc.lc.close() }

func (rc *scalarReadCache) staleness() time.Duration { return rc.maxStale }

func (rc *scalarReadCache) instrument(tel *telemetry.Sink) { rc.tel = tel }

// vecCell is one published pre-combined vector: the folded combined
// read, the time that read started, and the refcount of readers
// currently copying out of vals (so a retired cell is only reused as a
// refresh buffer once no straggler still reads it).
type vecCell struct {
	at      time.Time
	readers atomic.Int64
	vals    []uint64
}

// vecReadCache is the []uint64 cache: two cells double-buffered.
// Readers grab the current cell with a refcount handshake and copy its
// vals into their own reused buffer; the refresher fills the retired
// spare cell IN PLACE (when no straggler holds it) and swaps it in, so
// steady-state refreshes and reads allocate nothing.
//
// Reader protocol: load cur, increment its refcount, re-check that it
// is still cur. If the re-check fails the cell may already have been
// handed to a refresher, so release and retry; if it passes, the cell
// cannot be reused until the refcount drops (the refresher checks
// readers == 0 before reusing a retired cell, and a cell retired while
// held stays off-limits until released — a fresh cell is allocated
// instead, the only allocation the cache can make after warm-up).
// The staleness check reads c.at INSIDE that protected window too — a
// cell's fields may be rewritten by a refresher the moment it is
// retired, so nothing beyond the nil check touches the cell before the
// refcount handshake.
type vecReadCache struct {
	maxStale time.Duration
	cur      atomic.Pointer[vecCell]

	mu    sync.Mutex // serializes refreshes; guards spare
	spare *vecCell

	lc cacheLifecycle

	tel *telemetry.Sink // nil when uninstrumented
}

func newVecReadCache(maxStale time.Duration) readCache[[]uint64] {
	return &vecReadCache{maxStale: maxStale, lc: newCacheLifecycle()}
}

func (rc *vecReadCache) readInto(dst []uint64, refresh func([]uint64) []uint64) []uint64 {
	for {
		c := rc.cur.Load()
		if c == nil {
			break
		}
		c.readers.Add(1)
		if rc.cur.Load() == c {
			if time.Since(c.at) <= rc.maxStale {
				dst = append(dst[:0], c.vals...)
				c.readers.Add(-1)
				return dst
			}
			// Current but expired: refresh under mu.
			c.readers.Add(-1)
			break
		}
		// The cell rotated under us; it may be a refresher's write buffer
		// by now. Release and retry (the new current cell is fresh).
		c.readers.Add(-1)
	}
	rc.tel.Inc(telemetry.EvCacheMiss, 0)
	rc.mu.Lock()
	// Another reader (or the combiner) may have refreshed while we
	// waited for the lock. Copying under mu is safe against reuse:
	// retiring and reusing cells happens only under mu.
	if c := rc.cur.Load(); c != nil && time.Since(c.at) <= rc.maxStale {
		dst = append(dst[:0], c.vals...)
		rc.mu.Unlock()
		return dst
	}
	rc.tel.Inc(telemetry.EvInlineRefresh, 0)
	c := rc.refreshLocked(refresh)
	dst = append(dst[:0], c.vals...)
	rc.mu.Unlock()
	return dst
}

// refreshLocked re-combines into the spare cell and publishes it,
// retiring the previous current cell as the next spare. Callers hold
// rc.mu. The stamp is taken before the combined read starts (see the
// scalar cache).
func (rc *vecReadCache) refreshLocked(refresh func([]uint64) []uint64) *vecCell {
	at := time.Now()
	cell := rc.spare
	if cell == nil || cell.readers.Load() != 0 {
		// First refresh, or a straggler still copies out of the retired
		// cell: leave it to the collector and write into a fresh one.
		cell = &vecCell{}
	}
	rc.spare = nil
	cell.vals = refresh(cell.vals)
	cell.at = at
	rc.spare = rc.cur.Swap(cell)
	if rc.tel != nil {
		rc.tel.ObserveRefresh(time.Since(at))
		rc.tel.Trace(telemetry.TraceRefresh, -1, uint64(len(cell.vals)))
	}
	return cell
}

func (rc *vecReadCache) run(refresh func([]uint64) []uint64) {
	rc.lc.runTicks(rc.maxStale, func() {
		rc.tel.Inc(telemetry.EvCombinerTick, 0)
		rc.mu.Lock()
		rc.refreshLocked(refresh)
		rc.mu.Unlock()
	})
}

func (rc *vecReadCache) close() { rc.lc.close() }

func (rc *vecReadCache) staleness() time.Duration { return rc.maxStale }

func (rc *vecReadCache) instrument(tel *telemetry.Sink) { rc.tel = tel }
