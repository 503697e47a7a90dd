package approxobj

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// TestRandomizedConformanceSweep is the statistical counterpart of the
// deterministic conformance property: a Randomized(k, delta) counter
// promises its reads sit in the k-envelope with probability >= 1-delta
// per read, so over many fixed-workload trials the empirical
// out-of-envelope rate must stay at or below delta (plus sampling
// slack). The sweep crosses shards and batching like the deterministic
// sweep does, because the union-bound Delta composition is exactly what
// could go wrong there. Chebyshev makes the Morris parameter
// conservative — real rates run far below delta — so the threshold
// delta + 3 standard errors leaves no realistic flake margin while
// still catching a broken estimator or a mis-composed budget.
//
// Trials are independent because every counter construction draws a
// fresh base seed (construction-order seeding), with no wall-clock or
// global RNG involved.
func TestRandomizedConformanceSweep(t *testing.T) {
	const n = 4
	const k = 2
	const delta = 0.1
	trials := 150
	incs := 2000
	if testing.Short() {
		trials = 40
		incs = 500
	}
	for _, S := range []int{1, 3} {
		for _, B := range []int{1, 8} {
			t.Run(fmt.Sprintf("s%d-b%d", S, B), func(t *testing.T) {
				reads, outside := 0, 0
				for trial := 0; trial < trials; trial++ {
					c, err := NewCounter(
						WithProcs(n),
						WithAccuracy(Randomized(k, delta)),
						WithShards(S),
						WithBatch(B),
					)
					if err != nil {
						t.Fatal(err)
					}
					bounds := c.Bounds()
					if bounds.Mult != k {
						t.Fatalf("Bounds.Mult = %d, want %d", bounds.Mult, k)
					}
					// The per-shard budget split must reassemble to (about)
					// the configured delta — not S times it, not a slice
					// of it.
					if bounds.Delta <= 0 || bounds.Delta > delta*(1+1e-9) {
						t.Fatalf("Bounds.Delta = %g, want (0, %g]", bounds.Delta, delta)
					}
					handles := make([]CounterHandle, n)
					for i := range handles {
						handles[i] = c.Handle(i)
					}
					for j := 0; j < incs; j++ {
						handles[j%n].Inc()
					}
					for _, h := range handles {
						h.(BatchedCounterHandle).Flush()
					}
					for _, h := range handles {
						reads++
						if !bounds.Contains(uint64(incs), h.Read()) {
							outside++
						}
					}
				}
				rate := float64(outside) / float64(reads)
				slack := 3 * math.Sqrt(delta*(1-delta)/float64(reads))
				if rate > delta+slack {
					t.Errorf("empirical out-of-envelope rate %.4f (%d/%d reads) exceeds delta=%g + slack %.4f",
						rate, outside, reads, delta, slack)
				}
			})
		}
	}
}

// TestRandomizedComposesAcrossThePlane is the end-to-end smoke for the
// acceptance criterion: a Randomized(k, delta) counter built with
// shards, batching, and a read cache must work through pooled handles
// (Acquire/Do) and report a Bounds that carries the Delta term next to
// the Stale term, with a cached read inside the widened envelope.
func TestRandomizedComposesAcrossThePlane(t *testing.T) {
	const incs = 5000
	c, err := NewCounter(
		WithProcs(4),
		WithAccuracy(Randomized(2, 0.01)),
		WithShards(2),
		WithBatch(8),
		WithReadCache(time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b := c.Bounds()
	if b.Delta <= 0 || b.Stale == 0 {
		t.Fatalf("Bounds = %+v, want both Delta and Stale terms", b)
	}
	if b.IsExact() {
		t.Fatalf("randomized cached counter reports IsExact: %+v", b)
	}
	c.Do(func(h CounterHandle) {
		for i := 0; i < incs; i++ {
			h.Inc()
		}
	})
	// A cached read may serve a cell refreshed up to Stale before it,
	// possibly mid-loop, and Contains has no time term: wait until every
	// cell the read could be served from is newer than the last
	// increment.
	time.Sleep(2 * b.Stale)
	var got uint64
	c.Do(func(h CounterHandle) {
		h.(BatchedCounterHandle).Flush()
		got = h.Read()
	})
	// A cached read may trail by Stale, and the Morris estimate may sit
	// anywhere in the delta-probable envelope; at delta=0.01 the
	// Chebyshev-sized parameter makes an out-of-envelope read a
	// broken-estimator signal, not plausible bad luck.
	if !b.Contains(incs, got) {
		t.Errorf("cached randomized read %d outside envelope %+v of true count %d", got, b, incs)
	}
}

// TestRandomizedWindowedDelta checks the window composition of the
// failure probability: folding e ring epochs union-bounds the per-read
// Delta over the fold, and the public budget split divides the
// configured delta by shards x epochs so the reported Delta still comes
// out at (about) the configured value rather than e times it.
func TestRandomizedWindowedDelta(t *testing.T) {
	const delta = 0.12
	c, err := NewCounter(
		WithProcs(2),
		WithAccuracy(Randomized(2, delta)),
		WithShards(2),
		WithWindow(time.Hour, 6),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b := c.Bounds()
	if b.Delta <= 0 || b.Delta > delta*(1+1e-9) {
		t.Errorf("windowed Bounds.Delta = %g, want (0, %g]", b.Delta, delta)
	}
	if b.Window == 0 {
		t.Errorf("windowed Bounds lost its Window term: %+v", b)
	}
	if b.IsExact() {
		t.Errorf("randomized windowed counter reports IsExact: %+v", b)
	}
}
