// Package check decides linearizability of recorded histories against the
// (possibly relaxed) sequential specifications of counters and max
// registers. The relaxation is an object.Bounds, the envelope every object
// in this repository reports: a read may return x for a linearization
// prefix whose true value is v iff b.Contains(v, x). Only the numeric
// terms (Mult, Add, Buffer) enter; Stale and Window choose which true
// values a read may be judged against, and Delta how often it may miss,
// so the checker ignores them.
//
// General linearizability checking is NP-complete, but counters and max
// registers are monotone: the value a read returns is a monotone function
// of the linearization prefix. For such objects an interval/prefix-set
// method decides the problem efficiently:
//
//   - every read r must be assigned the set S(r) of increments linearized
//     before it, with preceding(r) ⊆ S(r) ⊆ possibly(r) (real-time
//     precedence) and |S(r)| within the accuracy envelope of its response;
//   - reads completed before r began force their sets into S(r) (prefixes
//     of one linearization are nested along real-time order);
//   - a greedy pass that keeps each S(r) as small as possible and fills it
//     with the increments most likely to be forced anyway (earliest
//     response first) decides feasibility.
//
// Tracking *sets* rather than counts matters: an increment that a
// completed read could not include (it began after that read ended) still
// joins the mandatory prefix of a later read, so the floors of two chained
// reads do not simply take a maximum — they union. CounterWitness makes
// the whole argument self-checking by emitting an explicit linearization
// and re-verifying it against the sequential specification.
//
// Crash support: operations that were invoked but never completed (crashed
// processes) may or may not have taken effect. Callers pass them as
// pending updates; the checker treats each as an optional wildcard.
package check

import (
	"fmt"
	"sort"

	"approxobj/internal/history"
	"approxobj/internal/object"
	"approxobj/internal/satmath"
)

// Result reports the verdict and, on failure, the offending read.
type Result struct {
	OK     bool
	Reason string
}

func fail(format string, args ...any) Result {
	return Result{Reason: fmt.Sprintf(format, args...)}
}

// admissible inverts b.Contains for response x: it returns the inclusive
// range [lo, hi] of true values v with b.Contains(v, x). Both sides of
// Contains are monotone in v, so the range is exact, and hi saturates at
// MaxUint64 with the same arithmetic. lo is the least v with v*Mult + Add
// >= x, written as a quotient plus one so that it cannot wrap near 2^64.
func admissible(b object.Bounds, x uint64) (lo, hi uint64) {
	m := max(b.Mult, 1)
	if x > b.Add {
		lo = (x-b.Add-1)/m + 1
	}
	return lo, satmath.Add(satmath.Mul(satmath.Add(x, b.Add), m), b.Buffer)
}

// Counter checks a history of KindInc and KindCounterRead operations
// against the counter specification relaxed by b (object.ExactBounds()
// for exact counters). pendingIncs is the number of increments that were
// invoked but never returned (crashed): each may count or not.
func Counter(h []history.Op, b object.Bounds, pendingIncs int) Result {
	res, _ := counterAssign(h, b, pendingIncs)
	return res
}

// readAssignment pairs a read with the increment set chosen for its
// linearization prefix (indices into the Ret-sorted increment list) and
// the number of crashed-increment wildcards it uses.
type readAssignment struct {
	op      history.Op
	set     incSet
	virtual uint64
}

// incSet is a bitset over increment indices.
type incSet []uint64

func newIncSet(n int) incSet { return make(incSet, (n+63)/64) }

func (s incSet) has(i int) bool { return s[i/64]&(1<<(uint(i)%64)) != 0 }
func (s incSet) add(i int)      { s[i/64] |= 1 << (uint(i) % 64) }

func (s incSet) union(o incSet) {
	for i := range o {
		s[i] |= o[i]
	}
}

func (s incSet) count() uint64 {
	var c uint64
	for _, w := range s {
		for ; w != 0; w &= w - 1 {
			c++
		}
	}
	return c
}

func (s incSet) clone() incSet {
	c := make(incSet, len(s))
	copy(c, s)
	return c
}

// counterAssign runs the greedy prefix-set assignment. On success it
// returns the per-read assignments (reads in invocation order) and the
// Ret-sorted increments via the second return's sets' index space.
func counterAssign(h []history.Op, b object.Bounds, pendingIncs int) (Result, []readAssignment) {
	var incs, reads []history.Op
	for _, op := range h {
		switch op.Kind {
		case history.KindInc:
			incs = append(incs, op)
		case history.KindCounterRead:
			reads = append(reads, op)
		default:
			return fail("counter history contains %v", op), nil
		}
	}
	if len(reads) == 0 {
		return Result{OK: true}, nil
	}
	// Sorting increments by response time makes preceding(r) a prefix:
	// every increment with Ret < r.Inv sorts before any other.
	sort.Slice(incs, func(i, j int) bool { return incs[i].Ret < incs[j].Ret })
	sort.Slice(reads, func(i, j int) bool { return reads[i].Inv < reads[j].Inv })

	var (
		assignments []readAssignment
		// pendingDone holds assignments of reads not yet known to precede
		// the current read; committed is the union of sets of reads that
		// completed before the current read's invocation.
		pendingDone      []readAssignment
		committed        = newIncSet(len(incs))
		committedVirtual uint64
	)
	for _, r := range reads {
		keep := pendingDone[:0]
		for _, d := range pendingDone {
			if d.op.Ret < r.Inv {
				committed.union(d.set)
				if d.virtual > committedVirtual {
					// Wildcards are reusable: later reads reuse the same
					// crashed increments, so unions take the max.
					committedVirtual = d.virtual
				}
			} else {
				keep = append(keep, d)
			}
		}
		pendingDone = keep

		// Mandatory prefix: everything committed plus every increment
		// that precedes r in real time.
		set := committed.clone()
		eligible := 0 // increments with Inv < r.Ret
		for i, inc := range incs {
			if inc.Ret < r.Inv {
				set.add(i)
			}
			if inc.Inv < r.Ret {
				eligible++
			}
		}
		mandatory := set.count() + committedVirtual

		envLo, envHi := admissible(b, r.Resp)
		lo := max(mandatory, envLo)
		hi := min(uint64(eligible)+uint64(pendingIncs), envHi)
		if lo > hi {
			return fail("read %v needs a prefix of [%d, %d] increments but mandatory prefix/envelope force %d..%d (%+v)",
				r, mandatory, uint64(eligible)+uint64(pendingIncs), lo, hi, b), nil
		}
		// Fill up to lo with eligible increments, earliest response first
		// (most likely to become mandatory for later reads), then crashed
		// wildcards.
		needFill := lo - mandatory
		virt := committedVirtual
		for i := range incs {
			if needFill == 0 {
				break
			}
			if !set.has(i) && incs[i].Inv < r.Ret {
				set.add(i)
				needFill--
			}
		}
		virt += needFill // remainder must come from crashed increments

		a := readAssignment{op: r, set: set, virtual: virt}
		assignments = append(assignments, a)
		pendingDone = append(pendingDone, a)
	}
	return Result{OK: true}, assignments
}

// MaxRegister checks a history of KindWrite and KindMaxRead operations
// against the max-register specification relaxed by b
// (object.ExactBounds() for exact registers). pendingWrites holds the
// arguments of writes that were invoked but never returned: each may have
// taken effect or not.
//
// For max registers a value-based floor is sufficient (unlike counters):
// the prefix state is the maximum written value, and unions of prefixes
// collapse to the maximum, so tracking the largest committed value is
// exact.
func MaxRegister(h []history.Op, b object.Bounds, pendingWrites []uint64) Result {
	var writes, reads []history.Op
	for _, op := range h {
		switch op.Kind {
		case history.KindWrite:
			writes = append(writes, op)
		case history.KindMaxRead:
			reads = append(reads, op)
		default:
			return fail("max-register history contains %v", op)
		}
	}
	if len(reads) == 0 {
		return Result{OK: true}
	}
	sort.Slice(reads, func(i, j int) bool { return reads[i].Inv < reads[j].Inv })

	// Process reads in invocation order; monotoneFloor carries the largest
	// v already assigned to a read that completed before the current one.
	type done struct {
		ret  uint64
		need uint64
	}
	var completedReads []done
	var monotoneFloor uint64
	for _, r := range reads {
		kept := completedReads[:0]
		for _, d := range completedReads {
			if d.ret < r.Inv {
				if d.need > monotoneFloor {
					monotoneFloor = d.need
				}
			} else {
				kept = append(kept, d)
			}
		}
		completedReads = kept

		// Definite floor: the largest write that completed before r began.
		floor := monotoneFloor
		for _, w := range writes {
			if w.Precedes(r) && w.Arg > floor {
				floor = w.Arg
			}
		}
		// Candidate maxima: the floor itself, or any possibly-preceding
		// write (including crashed ones) of a larger value.
		candidates := []uint64{floor}
		for _, w := range writes {
			if w.Inv < r.Ret && w.Arg > floor {
				candidates = append(candidates, w.Arg)
			}
		}
		for _, arg := range pendingWrites {
			if arg > floor {
				candidates = append(candidates, arg)
			}
		}
		sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })

		x := r.Resp
		chosen, ok := uint64(0), false
		for _, v := range candidates {
			if v < floor {
				continue
			}
			if b.Contains(v, x) {
				chosen, ok = v, true
				break // smallest admissible keeps future reads freest
			}
		}
		if !ok {
			return fail("read %v: no admissible maximum >= %d within envelope %+v (candidates %v)",
				r, floor, b, candidates)
		}
		completedReads = append(completedReads, done{ret: r.Ret, need: chosen})
	}
	return Result{OK: true}
}
