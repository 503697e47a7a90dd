// Package shard implements the sharded-object runtime — the backend
// plane every public object family runs on: S independently accurate
// shards of one object kind behind a single façade, with handle-affinity
// placement of mutations and a per-handle local buffer that keeps most
// mutations out of shared memory entirely. It is the scaling seam
// between the paper-faithful single objects (internal/core,
// internal/counter, internal/maxreg, internal/snapshot) and a serving
// workload where every process hammering one object is the bottleneck.
//
// # The plane
//
// A kind lives on the plane as two policies plus a set of backends
// (see plane.go):
//
//	kind          combine         buffer policy      envelope composition
//	counter       sum             count batching     Add -> S*Add, Buffer = (B-1)*n
//	max register  max             write elision      no widening, Buffer = B-1
//	snapshot      per-component   component elision  no widening, Buffer = B-1
//	histogram     per-bucket sum  bucket batching    no widening, Buffer = (B-1)*n
//
// Backends may additionally be randomized (RandomizedBackend, a Morris
// counter per shard): their per-shard envelope holds only with
// probability >= 1-delta per read, and the plane composes the failure
// probabilities by union bound — Delta -> min(1, S*delta) — alongside
// the numeric terms above.
//
// The combine policy folds the S per-shard reads into the object's
// value; the buffer policy decides which mutations stay handle-local.
// Everything else — construction, handle wiring, flushes, envelope
// composition, step accounting — is the generic core, shared by all
// kinds. Adding object family N+1 means declaring its backends and its
// policy row, not re-growing the plumbing. Nothing here runs a
// goroutine except a window's rotator (window.go); the read cache lives
// one layer up, one per public object, over either a plane or a
// window, and runs no goroutine.
//
// # Construction
//
// A sharded object for n process slots is S underlying objects
// ("shards"), all built over one prim.Factory with n slots, so process
// slot i is one prim.Proc on every shard — as in the paper's model,
// where a process applies its primitives to any base object — and its
// steps and the object's resident base objects are each counted in one
// place. Handle i mutates only its home shard i mod S (handle affinity:
// a mutator's cache traffic stays within one shard's base objects), and
// reads combine one read of every shard. Binding slot i builds only its
// home shard's handle; the slot's handles on the other shards, which
// hold the per-process read state of the paper's algorithms (Algorithm
// 1's last_i and help_i, a snapshot's collect buffers), are built by its
// first combined read, so a slot that never reads holds none. A combined
// read folds every shard straight into the caller's buffer (the first
// shard reads into it, the rest add or max-merge into it), so no handle
// keeps a fold buffer of its own. Optionally each handle buffers
// mutations locally: a counter handle buffers B increments and flushes
// them in one bulk operation (object.BulkCounterHandle when the backend
// supports it), a max register handle elides writes within B-1 of its
// last flushed value, and a snapshot handle elides component updates
// within B-1 above its last flushed value (downward moves always flush),
// so most mutations touch no shared memory at all.
//
// # Accuracy composition
//
// The combined read stays accurate because both accuracy relaxations in
// this repository compose over a partition of the operations:
//
//   - Multiplicative counters: if shard s holds v_s increments and its
//     read returns x_s with v_s/k <= x_s <= k*v_s, then summing over
//     shards gives (Σ v_s)/k <= Σ x_s <= k*(Σ v_s), because both envelope
//     bounds are linear in v_s. The sum of S k-multiplicative-accurate
//     shards is therefore still k-multiplicative-accurate — independent
//     of S.
//   - Additive counters: if each shard read errs by at most ±a, the sum
//     errs by at most ±S*a. Sharding an additive-accurate backend widens
//     the envelope by the shard count.
//   - Randomized (Morris) counters: each shard's estimate is inside the
//     k-multiplicative envelope with probability >= 1-delta,
//     independently. When every shard read is in range the linearity
//     argument above puts the sum in range too, so the combined read
//     fails only if some shard read fails: by union bound the combined
//     envelope holds with probability >= 1 - S*delta. Unlike every other
//     row this is a statement about the coin flips, not the schedule —
//     the whole point of the deterministic objects is that they need no
//     such qualifier.
//   - Max registers: the max over shards IS the global max, so per-shard
//     envelopes carry over with no widening at all — even better than
//     counting. If the true global max v lives in shard s, that shard's
//     read returns x_s >= v/k, so the combined max is >= v/k; and every
//     shard's read is <= k * (its own max) <= k*v, so the combined max is
//     <= k*v. S does not appear.
//   - Snapshots: component i is only ever written in its writer's home
//     shard i mod S, so the per-component merge recovers exactly the
//     home shard's value — the combined scan is a scan of a partition,
//     and per-shard envelopes carry over unchanged. S does not appear.
//   - Counter batching: a handle buffers at most B-1 increments between
//     flushes, so at most U = (B-1)*n increments are locally buffered
//     system-wide. Buffered increments are invisible to readers, which
//     only lowers reads: against the true count v the shards jointly hold
//     w >= v - U applied increments, giving x >= (v-U)/M - A while the
//     upper bound x <= M*v + A is unaffected.
//   - Max-register write elision: a handle skips the shared write when
//     the value is within B-1 of its last flushed value, so the shards
//     may lag the true maximum v by at most U = B-1 — per handle, NOT
//     times n, because the maximum is held by ONE handle, and that
//     handle's flushed value is >= v - (B-1). Reads may therefore be
//     stale by at most B-1 below v; the upper bound is unaffected.
//   - Snapshot component elision: a handle elides updates in the window
//     [flushed, flushed + B-1] above its last flushed component value
//     and flushes everything else (in particular every downward move)
//     immediately, so a scanned component trails its true value v_i by
//     at most B-1 and never exceeds it. The staleness is per component
//     (components are disjoint across handles), so Buffer = B-1.
//   - Histograms: per-shard bucket counts are exact and every bucket's
//     combined count sums a partition over shards, so sharding widens
//     nothing — like snapshots, S does not appear. A handle buffers at
//     most B-1 whole observations (across all its buckets together)
//     between flushes, so at most (B-1)*n observations system-wide are
//     invisible to readers: the Buffer term is rank-domain slack, while
//     the declared Mult is the value-domain rounding of the bucket
//     layout built above this package (internal/histogram).
//
// Bounds carries the resulting envelope (M, A, U) and each object's
// Bounds method reports it for the configured backend, shard count, and
// batch size; the package's property tests assert it against concurrent
// executions.
//
// # Consistency
//
// Each shard is linearizable on its own, but the combined Read is a
// collect over shards: mutations landing in an already-visited shard while
// the read is still visiting later shards are missed. The combined object
// is therefore regular rather than linearizable — a Read overlapping
// mutations returns a value inside the envelope of some true value v
// between the mutations completed before the Read started and those
// started before it returned. Counters and max registers are monotone, so
// this is the same guarantee a retry-free client can observe anyway; the
// snapshot's combined Scan is per-component regular (each component is a
// single-writer register, for which regular and atomic coincide per
// component). The soak tests in this package validate exactly these
// windows.
package shard

import (
	"sync/atomic"

	"approxobj/internal/core"
	"approxobj/internal/counter"
	"approxobj/internal/object"
	"approxobj/internal/prim"
	"approxobj/internal/satmath"
)

// Backend constructs one shard's underlying counter and declares its
// per-shard accuracy envelope. The three backends cover the repository's
// counter families: the paper's multiplicative counter, the exact AACH
// tree, and the batched additive collect.
type Backend = backend[object.Counter]

// kIdentity is the envelope function of backends whose per-shard
// accuracy is the parameter k itself.
func kIdentity(k uint64) uint64 { return k }

// MultBackend shards the paper's Algorithm 1 (core.MultCounter): each shard
// is k-multiplicative-accurate, and so is the sum.
func MultBackend() Backend {
	return Backend{
		meta: meta{name: "mult", mult: kIdentity},
		make: func(f *prim.Factory, k uint64) (object.Counter, error) {
			return core.NewMultCounter(f, k)
		},
	}
}

// AACHBackend shards the exact AACH tree counter: the sum is exact (modulo
// batching), trading read cost O(S log v) for per-shard increment locality.
func AACHBackend() Backend {
	return Backend{
		meta: meta{name: "aach"},
		make: func(f *prim.Factory, _ uint64) (object.Counter, error) {
			return counter.NewAACH(f)
		},
	}
}

// AdditiveBackend shards the k-additive-accurate batched collect: each
// shard errs by at most ±k, so the sum errs by at most ±S*k.
func AdditiveBackend() Backend {
	return Backend{
		meta: meta{name: "additive", add: kIdentity},
		make: func(f *prim.Factory, k uint64) (object.Counter, error) {
			return counter.NewAdditive(f, k)
		},
	}
}

// RandomizedBackend shards the Morris counter: each shard is a single
// exponent register whose estimate lands in the k-multiplicative
// envelope with probability >= 1-delta per read (counter.MorrisParam
// picks the Morris accuracy parameter from k and delta via Chebyshev),
// so the summed read is in range with probability >= 1 - S*delta — the
// Delta term of Bounds. Requires k >= 2 (the envelope must have an
// inside to land in) and 0 < delta < 1, which the spec layer checks.
//
// Each call to the returned backend's make — one per shard, and one per
// shard per epoch under a window's rotation — derives a fresh seed from
// the base seed and an internal counter, so no two shards share a
// random stream while a fixed base seed still reproduces the whole
// object deterministically.
func RandomizedBackend(delta float64, seed int64) Backend {
	var nth atomic.Int64
	return Backend{
		meta: meta{name: "morris", mult: kIdentity, delta: delta},
		make: func(f *prim.Factory, k uint64) (object.Counter, error) {
			return counter.NewMorris(f, counter.MorrisParam(k, delta), seed+nth.Add(1)-1)
		},
	}
}

// Bounds is the documented read envelope of a sharded object: against a
// true value v, a Read may return any x with
//
//	(v - Buffer)/Mult - Add <= x <= Mult*v + Add.
//
// It is the universal envelope type of internal/object, aliased here
// because the sharded runtime is where all three terms (multiplicative
// factor, summed per-shard additive slack, handle-buffered mutations)
// first compose.
type Bounds = object.Bounds

// counterPolicy is the counter's row of the plane: reads sum the shards
// (so per-shard additive slack sums too), and handles batch increment
// counts (so the B-1 staleness scales with the handle count).
var counterPolicy = &policy[uint64]{
	name:                  "sum",
	buffer:                countBatching,
	addScalesWithShards:   true,
	bufferScalesWithProcs: true,
}

// Counter is the sharded counter: S independently accurate shards summed
// by readers, with the plane's accessors (N, Bounds, BaseObjects).
// Create handles with Handle; the zero value is not usable.
type Counter struct {
	*plane[object.Counter, object.CounterHandle, uint64]
}

// New creates a sharded counter for n process slots with accuracy
// parameter k over backend be, configured by cfg. All shards are built
// over one n-slot prim.Factory, so slot i is one process on every shard;
// backend preconditions (e.g. k >= sqrt(n) for MultBackend) apply per
// shard.
func New(n int, k uint64, be Backend, cfg Config) (*Counter, error) {
	p, err := newPlane(n, k, cfg, be, counterPolicy,
		func(o object.Counter, pr *prim.Proc) object.CounterHandle { return o.CounterHandle(pr) },
		func(h object.CounterHandle, _ uint64) uint64 { return h.Read() },
		func(h object.CounterHandle, acc uint64) uint64 { return satmath.Add(acc, h.Read()) })
	if err != nil {
		return nil, err
	}
	return &Counter{p}, nil
}

// Handle binds process slot i (0 <= i < n) to the counter; a slot binds
// once (see coreAt). The handle increments shard i mod S and reads all
// shards as process i. Like every handle in this repository it must be
// used by a single goroutine.
func (c *Counter) Handle(i int) *Handle {
	h := &Handle{handleCore: c.coreAt(i)}
	if bulk, ok := h.home.(object.BulkCounterHandle); ok {
		h.buf.flush = bulk.IncN
	} else {
		home := h.home
		h.buf.flush = func(d uint64) {
			for ; d > 0; d-- {
				home.Inc()
			}
		}
	}
	return h
}

// Handle is one process's view of the sharded counter. It satisfies the
// public CounterHandle interface (Inc, Read, Steps) and adds Flush for
// draining the batch buffer before quiescent reads; Read sums one read
// of every shard, saturating at MaxUint64.
type Handle struct {
	handleCore[object.Counter, object.CounterHandle, uint64]
}

var _ object.CounterHandle = (*Handle)(nil)

// Inc adds one. With Config.Batch B > 1 the increment is buffered locally
// and flushed to the home shard every B calls, so B-1 of every B Incs are
// a single local add.
func (h *Handle) Inc() { h.buf.add(1) }
