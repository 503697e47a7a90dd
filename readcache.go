package approxobj

import (
	"sync"
	"sync/atomic"
	"time"

	"approxobj/internal/telemetry"
)

// This file is the read cache (WithReadCache): one pre-combined cell
// per object, so a cached read returns the cell's value in O(1) —
// independent of the shard count S, of a window's epoch count, and, for
// vector kinds, of how the combine folds — instead of paying one
// underlying read per shard and epoch. The price is freshness: the cell
// may be up to maxStale old, which Bounds reports as the envelope's
// Stale term (the same accuracy-for-speed trade batching makes in the
// rank domain, moved to the time domain).
//
// initObject builds the cache over whichever runtime the spec chose, a
// plane or an epoch ring, so an object has at most one cache. Only a
// read refreshes the cell: a reader finding it stale (or never filled —
// a brand-new or just-Reset object) re-combines under the refresh lock
// and publishes the result. So the staleness bound is unconditional,
// an object nobody reads does no work and runs no goroutine, and the
// very first read of an empty object returns the empty value, never a
// sentinel. Every refresh is the runtime read of the object's last
// slot, the refresh slot, which is reserved for it (Spec.totalProcs
// counts it, and Handle never hands it out) and which the refresh lock
// serializes: a caller slot, or the registry's snapshot slot, never
// binds a reader of its own, and its handle's Steps never include a
// refresh.
//
// A windowed object's cell folds the whole ring. Rotation does not
// publish into it: a cell combined before a rotation is at most maxStale
// old, which the Stale term admits. Reset does invalidate it, once the
// fresh ring is installed, so no read after Reset serves a pre-Reset
// cell (two Snapshot(true) calls within maxStale would otherwise report
// one interval twice).
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
// The refresh function itself is the refresh slot's ReadInto, which
// folds every shard and epoch straight into the cell it is given, so
// refreshes do not allocate once the cells exist.

// readCache is an object's read cache: scalarReadCache for
// uint64-valued kinds, vecReadCache for []uint64-valued ones.
type readCache[V any] interface {
	// readInto returns the cached combined value, refreshing inline
	// through refresh — the refresh slot's combined read into a reused
	// buffer — when the cell is stale. slot is the reading slot (the
	// telemetry stripe). The vector cache writes the value into dst
	// (grown as needed), the scalar cache ignores dst; the result is
	// owned by the caller.
	readInto(dst V, refresh func(V) V, slot int) V
	cacheControl
}

// cacheControl is what the object core drives, whatever the cache's
// value shape.
type cacheControl interface {
	// invalidate empties the cell, so the next read refreshes inline.
	invalidate()
}

// newReadCache builds the cache for V's shape with staleness window
// maxStale. tel (nil when uninstrumented) receives the cache's traffic.
func newReadCache[V any](maxStale time.Duration, tel *telemetry.Sink) readCache[V] {
	var rc any
	switch any(*new(V)).(type) {
	case uint64:
		rc = &scalarReadCache{cacheCommon: cacheCommon{maxStale: maxStale, tel: tel}, base: time.Now()}
	case []uint64:
		rc = &vecReadCache{cacheCommon: cacheCommon{maxStale: maxStale, tel: tel}}
	}
	return rc.(readCache[V])
}

// cacheCommon is the state both cache implementations share: the
// staleness window, the refresh lock, and the telemetry sink (nil when
// uninstrumented).
type cacheCommon struct {
	maxStale time.Duration
	mu       sync.Mutex // serializes refreshes
	tel      *telemetry.Sink
}

// countRead counts one cached-path read (hits are derived as reads
// minus the misses the cache reports): one striped atomic add when
// instrumented, one predicted branch when not — the read path takes no
// prim steps and allocates nothing either way.
func (cc *cacheCommon) countRead(slot int) {
	if cc.tel != nil {
		cc.tel.Inc(telemetry.EvCacheRead, slot)
	}
}

// scalarReadCache is the uint64 cache: the cell is a (value, stamp)
// atomic pair, so a fresh hit is two atomic loads and one monotonic
// clock read — no cell object, no allocation. stamp is nanoseconds
// since base at which the refreshing combined read started (0 = never
// filled, or invalidated). The refresher stores value THEN stamp;
// readers load stamp THEN value — so the value paired with a passing
// stamp is never older than the combined read that stamp describes (it
// may be newer, which only tightens the staleness bound).
type scalarReadCache struct {
	cacheCommon
	base  time.Time
	val   atomic.Uint64
	stamp atomic.Int64
}

func (rc *scalarReadCache) fresh() (uint64, bool) {
	s := rc.stamp.Load()
	if s == 0 || time.Since(rc.base)-time.Duration(s) > rc.maxStale {
		return 0, false
	}
	return rc.val.Load(), true
}

func (rc *scalarReadCache) readInto(_ uint64, refresh func(uint64) uint64, slot int) uint64 {
	rc.countRead(slot)
	if v, ok := rc.fresh(); ok {
		return v
	}
	rc.tel.Inc(telemetry.EvCacheMiss, 0)
	rc.mu.Lock()
	// Another reader may have refreshed while we waited for the lock.
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

func (rc *scalarReadCache) invalidate() {
	rc.mu.Lock()
	rc.stamp.Store(0)
	rc.mu.Unlock()
}

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
	cacheCommon
	cur   atomic.Pointer[vecCell] // nil = never filled, or invalidated
	spare *vecCell                // guarded by mu
}

func (rc *vecReadCache) readInto(dst []uint64, refresh func([]uint64) []uint64, slot int) []uint64 {
	rc.countRead(slot)
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
	// Another reader may have refreshed while we waited for the lock.
	// Copying under mu is safe against reuse: retiring and reusing cells
	// happens only under mu.
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

// invalidate unpublishes the current cell; a reader still copying out
// of it keeps it alive until done, and the collector takes it after.
func (rc *vecReadCache) invalidate() {
	rc.mu.Lock()
	rc.cur.Store(nil)
	rc.mu.Unlock()
}
