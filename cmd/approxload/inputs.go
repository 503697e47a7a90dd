package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
)

// ringLen is the length of every pre-generated input ring. Load goroutine
// request i uses entry i mod ringLen, so inputs are generated once, before
// timing starts, and no RNG call sits inside a timed region.
const ringLen = 1 << 14

// Shape of one pooled request (ingest and service).
const (
	incsPerReq = 8
	obsPerReq  = 8
	mutsPerReq = incsPerReq + obsPerReq + 1 // the +1 is the max-register write
)

// newRNG returns the deterministic stream for one (seed, stream) pair:
// every workload goroutine draws from its own stream.
func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// latencyValue draws a log-normal request latency in ns (median ~8 µs).
func latencyValue(r *rand.Rand) uint64 {
	return uint64(math.Exp(9+1.5*r.NormFloat64())) + 1
}

// depthValue draws a queue depth, the value a max register tracks.
func depthValue(r *rand.Rand) uint64 { return 1 + r.Uint64N(1<<20) }

// wideValue draws a log-uniform value in [1, 2^60), so a Multiplicative(2)
// histogram fed with it occupies about 60 buckets.
func wideValue(r *rand.Rand) uint64 {
	v := uint64(1) << r.IntN(60)
	return v + r.Uint64N(v)
}

// isError marks about 1 in 128 operations as failed requests, counted on
// the workload's exact errors counter.
func isError(r *rand.Rand) bool { return r.IntN(128) == 0 }

// request is one pooled ingest or service request: the route it hits, the
// latencies it observes, the queue depth it writes, and whether it failed.
type request struct {
	route uint8
	err   bool
	depth uint64
	lat   [obsPerReq]uint64
}

func genRequests(r *rand.Rand, routes int) []request {
	ring := make([]request, ringLen)
	for i := range ring {
		q := &ring[i]
		q.route = uint8(r.IntN(routes))
		q.err = isError(r)
		q.depth = depthValue(r)
		for j := range q.lat {
			q.lat[j] = latencyValue(r)
		}
	}
	return ring
}

// mutation is one step of the scrape workload's writer: the object it
// mutates (an index into the 256-object registry) and the value.
type mutation struct {
	obj uint16
	err bool
	val uint64
}

func genMutations(r *rand.Rand, objects int) []mutation {
	ring := make([]mutation, ringLen)
	for i := range ring {
		ring[i] = mutation{obj: uint16(r.IntN(objects)), err: isError(r), val: wideValue(r)}
	}
	return ring
}

// write is one step of the query workload's writer: one Inc, one Observe
// of lat and one Write of depth on the three shared objects.
type write struct {
	err   bool
	lat   uint64
	depth uint64
}

func genWrites(r *rand.Rand) []write {
	ring := make([]write, ringLen)
	for i := range ring {
		ring[i] = write{err: isError(r), lat: latencyValue(r), depth: depthValue(r)}
	}
	return ring
}

// digest fingerprints a workload's generated inputs, so a test can show
// that a seed fully determines them.
func digest(inputs ...any) string {
	h := sha256.New()
	for _, in := range inputs {
		fmt.Fprintf(h, "%v;", in)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// tally accumulates the effects of issued operations per object: how many
// mutations each object received (counters, histograms, snapshots) and the
// largest value written to it (max registers).
type tally struct {
	count []uint64
	max   []uint64
}

func newTally(objects int) *tally {
	return &tally{count: make([]uint64, objects), max: make([]uint64, objects)}
}

func (t *tally) reset() {
	clear(t.count)
	clear(t.max)
}

func (t *tally) add(o *tally) {
	for i := range t.count {
		t.count[i] += o.count[i]
		t.max[i] = max(t.max[i], o.max[i])
	}
}

// opRing is one load goroutine's input ring seen from the checker: apply
// adds the effects of entry i to a tally.
type opRing struct {
	n     int
	apply func(i int, t *tally)
	full  *tally // effects of one whole pass over the ring
}

func newOpRing(n, objects int, apply func(i int, t *tally)) *opRing {
	r := &opRing{n: n, apply: apply, full: newTally(objects)}
	for i := range n {
		apply(i, r.full)
	}
	return r
}

// tallyRange adds the effects of requests lo..hi-1 to t.
func (r *opRing) tallyRange(lo, hi uint64, t *tally) {
	if hi <= lo {
		return
	}
	n := uint64(r.n)
	if wraps := (hi - lo) / n; wraps > 0 {
		for o := range t.count {
			t.count[o] += wraps * r.full.count[o]
			t.max[o] = max(t.max[o], r.full.max[o])
		}
		lo += wraps * n
	}
	for i := lo; i < hi; i++ {
		r.apply(int(i%n), t)
	}
}
