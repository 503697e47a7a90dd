// Package core implements the paper's contributions: Algorithm 1, the
// k-multiplicative-accurate unbounded counter with constant amortized step
// complexity for k >= sqrt(n) (Theorem III.9), and Algorithm 2, the
// k-multiplicative-accurate m-bounded max register with worst-case step
// complexity O(min(log2 log_k m, n)) (Theorem IV.2), plus the unbounded
// max-register plug-in the paper sketches in Section I-B.
//
// Since PR 6 the public package reaches these algorithms only through the
// sharded backend plane (internal/shard); the unsharded types here double
// as reference implementations for the conformance oracles and the
// benchmark baselines.
package core

import (
	"fmt"
	"math/bits"

	"approxobj/internal/object"
	"approxobj/internal/prim"
	"approxobj/internal/satmath"
)

// MultCounter is Algorithm 1: a wait-free linearizable
// k-multiplicative-accurate unbounded counter. A CounterRead returns x with
// v/k <= x <= v*k where v is the number of CounterIncrements linearized
// before it. For k >= sqrt(n) the amortized step complexity is O(1)
// (Theorem III.9).
//
// Shared state is an unbounded sequence of test&set switches and a helping
// array H of (switch index, sequence number) pairs. Both are built by
// their first write (prim.TASSeq, prim.LazyPairRow): a counter that
// is only read holds no switch or helping register, and reads of either
// still take one step each. Increments are counted
// locally and announced by setting switches: switch_0 stands for one
// increment, and each switch of interval j >= 1 (indexes (j-1)k+1 .. jk)
// stands for t_j = t1 * k^(j-1) increments. Readers scan the first and last
// switch of each interval (memoized in the handle across operations) and
// every n scan steps consult H, so a reader overtaken by concurrent
// increments still terminates (wait-freedom, Lemma III.1).
//
// # Deviation from the paper (boundary repair)
//
// The paper fixes t1 = k. Property testing of that verbatim algorithm
// exposed a boundary gap in Claim III.6: when only switch_0 is set, each of
// the n processes may hold up to t1-1 unannounced increments, so the true
// count can reach 1 + n(t1-1) while a read returns ReturnValue(0,0) = k.
// The claim's algebra ("umax/k <= v_op") silently assumes q >= 1; at q = 0
// it requires 1 + n(k-1) <= k^2, i.e. n <= k+1 — NOT implied by k >= sqrt(n)
// (e.g. n = 8, k = 5 admits v = 33 > k^2 = 25 against a response of 5).
// This implementation therefore generalizes the first-interval threshold to
//
//	t1 = min(k, floor((k^2-1)/n) + 1)
//
// which guarantees 1 + n(t1-1) <= k^2 and coincides with the paper's t1 = k
// exactly when n <= k+1 (where the paper's claim is sound). All other
// thresholds scale by k per interval as in the paper, and the amortized
// O(1) bound is unaffected (announcements cost O(1) amortized for any
// t1 >= 1). Use Verbatim to study the paper's literal algorithm; experiment
// E9 demonstrates the violation.
type MultCounter struct {
	n        int
	k        uint64
	t1       uint64
	switches *prim.TASSeq
	h        *prim.LazyPairRow
}

var _ object.Counter = (*MultCounter)(nil)

// Option configures a MultCounter (see Verbatim and Unchecked).
type Option func(*options)

type options struct {
	verbatim  bool
	unchecked bool
}

// Verbatim makes the counter follow the paper's pseudocode exactly
// (t1 = k), including its boundary-case accuracy gap.
func Verbatim() Option { return func(o *options) { o.verbatim = true } }

// Unchecked skips the k >= sqrt(n) accuracy precondition, for studying the
// algorithm in the lower-bound regime of Section III-D.
func Unchecked() Option { return func(o *options) { o.unchecked = true } }

// NewMultCounter creates the counter for the factory's n processes with
// accuracy parameter k >= 2. Unless the Unchecked option is given, it
// enforces the paper's accuracy precondition k >= sqrt(n).
func NewMultCounter(f *prim.Factory, k uint64, opts ...Option) (*MultCounter, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	n := f.N()
	if n < 1 {
		return nil, fmt.Errorf("core: need at least one process, got %d", n)
	}
	if k < 2 {
		return nil, fmt.Errorf("core: accuracy parameter k must be >= 2, got %d", k)
	}
	// The saturating predicate is shared with the public spec layer
	// (approxobj.Spec.validate), which mirrors this precondition.
	if !o.unchecked && !satmath.SquareAtLeast(k, uint64(n)) {
		return nil, fmt.Errorf("core: accuracy guarantee needs k >= sqrt(n): k=%d, n=%d", k, n)
	}
	t1 := k
	if !o.verbatim {
		// t1 = min(k, floor((k²-1)/n) + 1) over the naturals: k² takes
		// 128 bits, and a quotient that overflows 64 bits exceeds k.
		hi, lo := bits.Mul64(k, k)
		lo, borrow := bits.Sub64(lo, 1, 0)
		if hi -= borrow; hi < uint64(n) {
			if q, _ := bits.Div64(hi, lo, uint64(n)); q < k {
				t1 = q + 1
			}
		}
	}
	return &MultCounter{
		n:        n,
		k:        k,
		t1:       t1,
		switches: f.TASSeq(),
		h:        f.LazyPairRow(n),
	}, nil
}

// K returns the accuracy parameter.
func (c *MultCounter) K() uint64 { return c.k }

// N returns the number of processes.
func (c *MultCounter) N() int { return c.n }

// FirstThreshold returns t1, the per-switch weight of the first interval
// (k in the paper's verbatim algorithm).
func (c *MultCounter) FirstThreshold() uint64 { return c.t1 }

// threshold returns t_j, the announcement threshold of interval j:
// t_0 = 1 (switch_0), t_j = t1 * k^(j-1) for j >= 1.
func (c *MultCounter) threshold(j uint64) uint64 {
	if j == 0 {
		return 1
	}
	return mulSat(c.t1, powSat(c.k, j-1))
}

// MultHandle is a process's view of the counter, holding the persistent
// local variables of Algorithm 1 (lines 4-9).
type MultHandle struct {
	c *MultCounter
	p *prim.Proc

	last     uint64 // last_i: scan position of CounterRead (line 5)
	lcounter uint64 // unannounced increments (line 6)
	interval uint64 // current announcement interval j (limit_i = t_j, line 7)
	limit    uint64 // cached threshold(interval)
	sn       uint32 // switches set by this process (line 8)
	l0       uint64 // resume offset within the current interval (line 9)

	// lastP, lastQ are the (p, q) decomposition of the most recent switch
	// this handle observed set (pseudocode lines 38-39). They persist
	// across reads, like last_i: a read whose scan loop does not run
	// returns ReturnValue of the previously observed switch (line 58).
	lastP, lastQ uint64
	seen         bool // whether lastP, lastQ are meaningful (last > 0)

	help []uint32 // help_i[j]: sequence-number baselines (line 48)
}

var _ object.CounterHandle = (*MultHandle)(nil)

// Handle binds process p to the counter.
func (c *MultCounter) Handle(p *prim.Proc) *MultHandle {
	return &MultHandle{
		c:     c,
		p:     p,
		limit: 1,
		l0:    1,
		help:  make([]uint32, c.n),
	}
}

// CounterHandle implements object.Counter.
func (c *MultCounter) CounterHandle(p *prim.Proc) object.CounterHandle {
	return c.Handle(p)
}

// advance moves the handle to the next announcement interval (the paper's
// limit_i <- k * limit_i, lines 21/28).
func (h *MultHandle) advance() {
	h.interval++
	h.limit = h.c.threshold(h.interval)
}

// Inc is the CounterIncrement operation (Algorithm 1, lines 10-29).
func (h *MultHandle) Inc() {
	c := h.c
	h.lcounter++ // line 11
	// The announcement attempt repeats at most once: only when t1 = 1 does
	// advancing from interval 0 leave limit == lcounter == 1 (a process
	// that just lost switch_0 must immediately announce on interval 1).
	for h.lcounter == h.limit { // line 12
		if j := h.interval; j > 0 {
			// Announce t_j increments on a switch of interval j (indexes
			// (j-1)k+1 .. jk), resuming at offset l0 (lines 15-23).
			for l := (j-1)*c.k + h.l0; l <= j*c.k; l++ { // line 15
				if c.switches.TestAndSet(h.p, l) { // line 16
					h.sn++                                    // line 17
					c.h.Write(h.p, h.p.ID(), uint32(l), h.sn) // line 18
					h.lcounter = 0                            // line 19
					if l == j*c.k {                           // line 20
						h.advance() // line 21
					}
					h.l0 = 1 + l%c.k // line 22
					return           // line 23
				}
			}
			h.l0 = 1 // line 24
		} else {
			if c.switches.TestAndSet(h.p, 0) { // line 26
				h.lcounter = 0 // line 27
			}
		}
		h.advance() // line 28
	}
}

// IncN applies d CounterIncrements. Algorithm 1 counts increments locally
// and touches shared memory only at announcement thresholds, so a loop of
// Incs already costs O(announcements) shared steps, not O(d); IncN exists
// so bulk callers (internal/shard's batched flush) hit one code path across
// backends.
func (h *MultHandle) IncN(d uint64) {
	for ; d > 0; d-- {
		h.Inc()
	}
}

// Read is the CounterRead operation (Algorithm 1, lines 35-58). It returns
// an approximation x of the number v of increments linearized before it,
// with v/k <= x <= v*k when k >= sqrt(n).
func (h *MultHandle) Read() uint64 {
	c := h.c
	scans := 0                              // line 36: c <- 0
	for c.switches.Read(h.p, h.last) != 0 { // line 37
		h.lastP = h.last % c.k // line 38
		h.lastQ = h.last / c.k // line 39
		h.seen = true
		if h.last%c.k == 0 { // line 40: move to first switch of next interval
			h.last++ // line 41
		} else { // h.last is the first switch of an interval: jump to its last
			h.last += c.k - 1 // line 43
		}
		scans++             // line 44
		if scans%c.n == 0 { // line 45
			if scans == c.n { // line 46: first pass records baselines
				for j := 0; j < c.n; j++ { // lines 47-48
					_, sn := c.h.Read(h.p, j)
					h.help[j] = sn
				}
			} else { // later passes look for a helper that advanced twice
				for j := 0; j < c.n; j++ { // lines 50-54
					val, sn := c.h.Read(h.p, j)
					if sn >= h.help[j]+2 { // line 52
						// The switch val was set within our execution
						// interval (Lemma III.3): safe to return.
						return c.returnValue(uint64(val)%c.k, uint64(val)/c.k) // line 55
					}
				}
			}
		}
	}
	if h.last == 0 { // line 56: nothing ever announced
		return 0
	}
	if !h.seen {
		// last advances only inside the scan loop, which records (p, q)
		// first, so last > 0 implies seen.
		panic("core: scan position advanced without observing a set switch")
	}
	return c.returnValue(h.lastP, h.lastQ) // line 58
}

// returnValue is the ReturnValue(p, q) function (lines 30-34): switch_0
// counts for one increment, each of the k switches of interval l in [1..q]
// counts for t_l, and p more switches of interval q+1 count for t_(q+1)
// each; the result is scaled by k to centre it in the accuracy envelope.
// (With the paper's t1 = k this is k*(1 + sum_{l=1..q} k^(l+1) + p*k^(q+1)),
// matching lines 30-34 verbatim.) The thresholds come from one running
// product th = t_l, so a read costs O(q) multiplies rather than a power
// per interval; saturating multiplication is monotone and stays at
// MaxUint64 once there, so th equals threshold(l) bit for bit, and the
// saturating sum does not depend on the order of its terms.
func (c *MultCounter) returnValue(p, q uint64) uint64 {
	ret, th := uint64(1), c.t1
	for l := uint64(1); l <= q; l++ { // lines 32-33
		ret = addSat(ret, mulSat(c.k, th))
		th = mulSat(th, c.k)
	}
	ret = addSat(ret, mulSat(p, th)) // line 31: th = t_(q+1)
	return mulSat(c.k, ret)          // line 34
}

// Steps returns the number of primitive steps taken by the bound process.
func (h *MultHandle) Steps() uint64 { return h.p.Steps() }

// ScanStop returns the (p, q) decomposition of the last switch this handle
// observed set — the scan-stop configuration of Figure 1 (diagnostic).
func (h *MultHandle) ScanStop() (p, q uint64) { return h.lastP, h.lastQ }

// SwitchState returns switch_i without taking a model step (diagnostic, for
// rendering Figure 1 configurations).
func (c *MultCounter) SwitchState(i uint64) uint64 { return c.switches.Peek(i) }

// Saturating arithmetic (shared with internal/shard via internal/satmath).
func mulSat(a, b uint64) uint64 { return satmath.Mul(a, b) }
func addSat(a, b uint64) uint64 { return satmath.Add(a, b) }
func powSat(k, e uint64) uint64 { return satmath.Pow(k, e) }
