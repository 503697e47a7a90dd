package shard

import (
	"fmt"

	"approxobj/internal/prim"
	"approxobj/internal/telemetry"
)

// runtime is the shard-allocation core of the backend plane: S
// independent instances of one underlying object ("shards"), each built
// over its own n-slot prim.Factory so that any process slot can reach
// every shard. Every kind (Counter, MaxReg, Snapshot) shares it through
// the generic plane in plane.go — what differs per kind is declared
// there as a policy row (a Combine for reads, a bufferPolicy for
// handle-local mutations) plus a backend set. To add object family N+1,
// register those in a new kind file next to snapshot.go; do not grow
// bespoke paths here.
type runtime[O any] struct {
	n      int
	shards []O
	facts  []*prim.Factory
}

// newRuntime builds S shards of n slots each via mk. kind names the
// backend in construction errors. tel (nil when uninstrumented) is
// attached to each shard's factory before the shard is built, so
// construction-time arena rows are counted.
func newRuntime[O any](kind string, n, shards int, tel *telemetry.Sink, mk func(f *prim.Factory) (O, error)) (*runtime[O], error) {
	rt := &runtime[O]{
		n:      n,
		shards: make([]O, shards),
		facts:  make([]*prim.Factory, shards),
	}
	for s := range rt.shards {
		f := prim.NewFactory(n)
		f.Instrument(tel)
		o, err := mk(f)
		if err != nil {
			return nil, fmt.Errorf("shard: building shard %d/%d (%s): %w", s, shards, kind, err)
		}
		rt.facts[s] = f
		rt.shards[s] = o
	}
	return rt, nil
}

// slotProcs binds process slot i to every shard's factory (panics on
// out-of-range i, like Factory.Proc). The proc at index s drives shard s.
func (rt *runtime[O]) slotProcs(i int) []*prim.Proc {
	procs := make([]*prim.Proc, len(rt.facts))
	for s, f := range rt.facts {
		procs[s] = f.Proc(i)
	}
	return procs
}

// home returns the home shard of slot i (handle affinity: a handle's
// mutations all land on shard i mod S, keeping its cache traffic within
// one shard's base objects).
func (rt *runtime[O]) home(i int) int { return i % len(rt.shards) }

// stepsOf sums the shared-memory steps a slot has taken across all shards.
func stepsOf(procs []*prim.Proc) uint64 {
	var steps uint64
	for _, p := range procs {
		steps += p.Steps()
	}
	return steps
}
