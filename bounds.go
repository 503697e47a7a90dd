package approxobj

import "approxobj/internal/object"

// Bounds is the universal accuracy envelope: every object in the package,
// exact ones included, reports one. Against a true value v, a read may
// return any x with
//
//	(v - Buffer)/Mult - Add <= x <= Mult*v + Add.
//
// Mult is the multiplicative factor (k for Multiplicative(k) objects, 1
// otherwise), Add the additive slack (S*k for a counter with Additive(k)
// accuracy sharded S ways, 0 otherwise), and Buffer the maximum number of
// increments parked in handle-local batch buffers system-wide ((B-1)*n
// for WithBatch(B) counters, 0 otherwise). Exact objects report the zero
// envelope {Mult: 1, Add: 0, Buffer: 0}.
//
// Stale is the read-cache staleness window of WithReadCache (0 when the
// cache is off): a cached read serves a pre-combined value whose
// underlying combined read started at most Stale earlier, so the
// envelope holds against some true value in the regularity window
// opened Stale before the read began. It is a time-domain term — it
// widens the window checkers evaluate ContainsRange over, not the
// arithmetic of the envelope itself; see each kind's type documentation
// for the per-kind reading. Window is the analogous epoch-truncation
// skew of WithWindow objects: reads cover at least the last d - Window
// and at most the last d of mutations.
//
// Delta is the envelope's failure probability, 0 for every
// deterministic accuracy (Exact, Additive, Multiplicative) and the
// configured delta for Randomized(k, delta) objects: each read of a
// randomized object satisfies the numeric envelope only with
// probability >= 1-Delta, taken over the object's internal coin flips.
// This is the determinism contrast the paper builds on (§I-A): its
// k-multiplicative objects are in range on every read of every
// schedule, where Morris-style randomized counters buy smaller state by
// letting a delta fraction of reads miss. Holds() returns 1-Delta, and
// IsExact reports false whenever Delta is nonzero — a randomized read
// is never exact, whatever its numeric terms.
//
// Contains and ContainsRange evaluate membership; the latter checks a
// response against the regularity window of a concurrent read (see
// internal/shard's package comment). The conformance tests in this
// package sweep every spec combination and assert observed reads against
// the reported envelope.
type Bounds = object.Bounds

// ExactBounds is the zero envelope reported by exact objects.
func ExactBounds() Bounds { return object.ExactBounds() }
