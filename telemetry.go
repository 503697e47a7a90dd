package approxobj

import (
	"fmt"
	"weak"

	"approxobj/internal/telemetry"
)

// This file is the public face of the self-instrumentation plane: a
// Telemetry domain objects opt into with WithTelemetry, a sampled trace
// hook, and Registry.SelfMetrics, which surfaces the runtime's internal
// event counts as ordinary registry objects — counted, enveloped, and
// exported exactly like user objects (the library instrumented by its
// own approximate objects).
//
// The accounting applies the repository's thesis to itself: the hottest
// per-operation events (buffer hits, elided writes) are batched in
// handle-local accumulators and published every telemetry.CounterBatch
// events, and that lag is not hidden — it is the Buffer term of those
// meters' own Bounds, rendered as _bound companion series by package
// expose like any user object's envelope. Everything else is counted
// exactly (striped atomic adds). Disabled instrumentation — no
// WithTelemetry — costs one predicted-not-taken branch on the hot
// paths and zero allocations (see TestTelemetryDisabledZeroCost).

// TraceEvent enumerates the sampled trace hook's event kinds: the
// coarse structural events of the runtime worth a callback, not the
// per-operation counts (those are meters; see Registry.SelfMetrics).
type TraceEvent int

const (
	// TraceFlush: a handle buffer published its pending state to the
	// shards; value is the flushed amount.
	TraceFlush TraceEvent = iota
	// TraceRefresh: a read-cache cell was re-combined; slot is -1 (the
	// cache is per object, not per slot), value is the combined scalar
	// (or the vector length, for vector kinds).
	TraceRefresh
	// TraceRotation: a windowed object rotated an epoch out of its
	// ring; value is the new epoch sequence number.
	TraceRotation
	// TraceAcquire: a pool slot was leased; slot is the leased slot.
	TraceAcquire
)

// String names the trace event kind.
func (ev TraceEvent) String() string {
	switch ev {
	case TraceFlush:
		return "flush"
	case TraceRefresh:
		return "refresh"
	case TraceRotation:
		return "rotation"
	case TraceAcquire:
		return "acquire"
	}
	return "invalid"
}

// TraceFunc receives sampled trace events. It is called synchronously
// on the traced operation's goroutine, so implementations should be
// cheap and must not call back into the object being traced.
type TraceFunc func(ev TraceEvent, slot int, value uint64)

// Telemetry is one self-instrumentation domain: a shared event sink
// that every object built with WithTelemetry(t) reports into, read back
// out by Registry.SelfMetrics. Create one with NewTelemetry and share
// it across the objects whose runtime activity should aggregate into
// one set of approx_runtime_* meters (typically one per process, like a
// metrics registry). A Telemetry is safe for concurrent use once
// configured; the zero value is not usable.
type Telemetry struct {
	sink *telemetry.Sink
}

// TelemetryOption configures a Telemetry domain at construction.
type TelemetryOption func(*Telemetry)

// NewTelemetry creates an enabled, empty telemetry domain.
func NewTelemetry(opts ...TelemetryOption) *Telemetry {
	t := &Telemetry{sink: telemetry.New()}
	for _, opt := range opts {
		opt(t)
	}
	return t
}

// WithTraceHook installs a sampled trace hook on the domain: fn fires
// for roughly 1 in 2^sampleShift trace events (sampleShift 0 fires on
// every event), selected by an unbiased shared SplitMix64 draw, so the
// hook's cost on the hot paths is one atomic add per offered event
// regardless of the sample rate. Configuration only — the hook cannot
// be changed once objects are built on the domain.
func WithTraceHook(fn TraceFunc, sampleShift uint) TelemetryOption {
	return func(t *Telemetry) {
		if fn == nil {
			return
		}
		t.sink.SetTrace(func(ev telemetry.TraceEvent, slot int, value uint64) {
			fn(publicTraceEvent(ev), slot, value)
		}, sampleShift)
	}
}

// publicTraceEvent maps the internal trace enum to the public mirror.
func publicTraceEvent(ev telemetry.TraceEvent) TraceEvent {
	switch ev {
	case telemetry.TraceFlush:
		return TraceFlush
	case telemetry.TraceRefresh:
		return TraceRefresh
	case telemetry.TraceRotation:
		return TraceRotation
	default:
		return TraceAcquire
	}
}

// WithTelemetry attaches the object to telemetry domain t: its runtime
// layers (handle buffers, read cache, pool, window ring, base-object
// arenas) report events into t's sink, surfaced by
// Registry.SelfMetrics. Objects built without it are completely
// uninstrumented — the runtime's telemetry pointer stays nil and the
// hot paths pay a single never-taken branch.
func WithTelemetry(t *Telemetry) Option { return func(s *Spec) { s.tel = t } }

// instrumentObject wires the construction-time telemetry of one built
// object c — its contribution to the resident-bytes gauge and its
// slots' share of the lag accounting behind the batched meters' Buffer
// envelope — and returns the sink its slot pool reports lease events
// to (nil when the object is uninstrumented). The gauge calls c's
// BaseObjects per scrape (resident bytes is a pull gauge, so windowed
// objects report their live ring, not a stale construction-time
// figure) through a weak pointer: the domain does not keep c alive, and
// the sink drops the gauge once c is collected. The lag units stay:
// a dropped handle may take up to CounterBatch-1 unpublished events
// per meter with it, which the Buffer envelope must keep covering.
func instrumentObject[H pooledHandle](spec Spec, c *objectCore[H]) *telemetry.Sink {
	if spec.tel == nil {
		return nil
	}
	sink := spec.tel.sink
	// One lag unit per caller slot: each slot's handle buffer owns at
	// most one unpublished BumpLocal accumulator per batched meter. The
	// registry's snapshot slot and the read cache's refresh slot never
	// mutate, so they never hold one.
	sink.AddLagUnits(spec.procs)
	// The paper's space measure is base objects; a register is an ID
	// word plus a value word, so 16 bytes each is the documented
	// estimate (padding and arena guards are deliberately excluded —
	// the meter tracks model cost, not allocator overhead).
	obj := weak.Make(c)
	sink.RegisterResident(func() (uint64, bool) {
		o := obj.Value()
		if o == nil {
			return 0, false
		}
		return 16 * o.BaseObjects(), true
	})
	return sink
}

// selfMeter is one approx_runtime_* meter: a read-only registry
// instance whose value is a closure over the telemetry sink. Its spec
// has zero procs, which no user spec can have, so the registry's typed
// getters reject the name instead of handing out a meter as a user
// object.
type selfMeter struct {
	name   string
	spec   Spec
	sink   *telemetry.Sink
	read   func() uint64
	bounds func() Bounds
}

var _ instance = (*selfMeter)(nil)

func (m *selfMeter) Close() {}
func (m *selfMeter) snapshot() ObjectSnapshot {
	return ObjectSnapshot{Value: m.read(), Bounds: m.bounds()}
}

// exactMeterBounds is the envelope of the exactly-counted meters.
func exactMeterBounds() Bounds { return Bounds{Mult: 1} }

// selfMeters returns the meters SelfMetrics registers over sink, in
// registration order (exported indirectly through Registry.Names).
func selfMeters(sink *telemetry.Sink) []*selfMeter {
	exact := func(name string, read func() uint64) *selfMeter {
		return &selfMeter{name: name, spec: Spec{kind: KindCounter}, sink: sink, read: read, bounds: exactMeterBounds}
	}
	counted := func(name string, ev telemetry.Event) *selfMeter {
		return exact(name, func() uint64 { return sink.Total(ev) })
	}
	lagged := func(name string, ev telemetry.Event) *selfMeter {
		m := counted(name, ev)
		m.bounds = func() Bounds { return Bounds{Mult: 1, Buffer: sink.LagBound()} }
		return m
	}
	gauge := func(name string, kind Kind, read func() uint64) *selfMeter {
		m := exact(name, read)
		m.spec = Spec{kind: kind}
		return m
	}
	return []*selfMeter{
		counted("approx_runtime_flushes", telemetry.EvFlush),
		lagged("approx_runtime_buffer_hits", telemetry.EvBufferHit),
		lagged("approx_runtime_elided_writes", telemetry.EvElidedWrite),
		exact("approx_runtime_readcache_hits", func() uint64 {
			reads, misses := sink.Total(telemetry.EvCacheRead), sink.Total(telemetry.EvCacheMiss)
			if misses > reads {
				return 0
			}
			return reads - misses
		}),
		counted("approx_runtime_readcache_misses", telemetry.EvCacheMiss),
		counted("approx_runtime_readcache_inline_refreshes", telemetry.EvInlineRefresh),
		gauge("approx_runtime_refresh_ns_peak", KindMaxRegister, sink.RefreshHighWaterNs),
		counted("approx_runtime_pool_acquires", telemetry.EvPoolAcquire),
		counted("approx_runtime_pool_tryacquire_failures", telemetry.EvPoolTryFail),
		counted("approx_runtime_window_rotations", telemetry.EvRotation),
		counted("approx_runtime_rehomed_handles", telemetry.EvRehome),
		counted("approx_runtime_arena_rows", telemetry.EvArenaRow),
		gauge("approx_runtime_resident_bytes", KindSnapshot, sink.ResidentBytes),
	}
}

// SelfMetrics registers the telemetry domain's runtime meters in the
// registry as ordinary objects, so Snapshot reads them and package
// expose renders them as approx_runtime_* series next to the user
// objects they describe. The meters are:
//
//	approx_runtime_flushes_total            handle buffers published to the shards
//	approx_runtime_buffer_hits_total        writes absorbed by handle-local buffers¹
//	approx_runtime_elided_writes_total      writes elided entirely by an elision policy¹
//	approx_runtime_readcache_hits_total     cached reads served from a fresh cell
//	approx_runtime_readcache_misses_total   cached reads that fell through to the refresh lock
//	approx_runtime_readcache_inline_refreshes_total  reads that re-combined the cell themselves
//	approx_runtime_refresh_ns_peak          read-cache refresh latency high-water mark (gauge, ns)
//	approx_runtime_pool_acquires_total      pool slots leased
//	approx_runtime_pool_tryacquire_failures_total  TryAcquire calls that found no free slot
//	approx_runtime_window_rotations_total   epochs rotated out of window rings
//	approx_runtime_rehomed_handles_total    windowed handles re-bound to a fresh epoch
//	approx_runtime_arena_rows_total         base-object arena rows allocated
//	approx_runtime_resident_bytes           base-object bytes of the live instrumented objects (gauge)
//
// ¹ Counted through batched handle-local accumulators (the same MVY
// trade the objects themselves make), so these two meters carry a
// nonzero Buffer envelope — at most telemetry.CounterBatch-1
// unpublished events per slot of each instrumented object — which
// expose renders as their _bound companion series. Every other meter
// is exact. Hits are derived (cached reads minus misses, saturating).
//
// The read-cache meters and refresh traces count per object: a cached
// object, windowed or not, has one cache, refreshed only by the reads
// that find it stale. A windowed cached object refreshes through a ring
// handle of its own, which re-homes after every rotation and counts in
// approx_runtime_rehomed_handles_total.
//
// SelfMetrics is idempotent for the same domain and an error when a
// meter name is already registered to anything else. The returned
// meters round-trip through Registry.Snapshot and Close like any
// object (Close is a no-op for them — the sink has no background
// resources).
func (r *Registry) SelfMetrics(t *Telemetry) error {
	if t == nil || t.sink == nil {
		return fmt.Errorf("approxobj: SelfMetrics needs a telemetry domain built by NewTelemetry")
	}
	meters := selfMeters(t.sink)
	r.mu.Lock()
	defer r.mu.Unlock()
	// Validate the whole batch before registering any of it, so a
	// partial failure does not leave half the meters behind.
	for _, m := range meters {
		if e, ok := r.entries[m.name]; ok {
			had, isMeter := e.obj.(*selfMeter)
			if !isMeter {
				return fmt.Errorf("approxobj: SelfMetrics name %q already registered as %s", m.name, e.spec)
			}
			if had.sink != t.sink {
				return fmt.Errorf("approxobj: SelfMetrics name %q already bound to a different telemetry domain", m.name)
			}
		}
	}
	for _, m := range meters {
		if _, ok := r.entries[m.name]; ok {
			continue
		}
		r.entries[m.name] = &regEntry{name: m.name, spec: m.spec, obj: m}
		r.order = append(r.order, m.name)
	}
	return nil
}
