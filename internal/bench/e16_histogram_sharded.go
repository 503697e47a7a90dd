package bench

import (
	"fmt"
	"math/rand"
	"slices"

	"approxobj"
	"approxobj/internal/histogram"
)

// E16ShardedHistogram is the scaling experiment for the histogram side
// of the backend plane — the first kind whose read is a query, not a
// scalar — driven through the public spec API (WithShards x WithBatch
// over Multiplicative(2) rounded buckets): goroutines x shards x batch
// sweep of wall-clock throughput, 95% observe / 5% p99-quantile query
// over a skewed (latency-like) value distribution. Sharding splits
// observation traffic across disjoint bucket vectors whose per-bucket
// sums widen nothing; the batch parameter buffers whole observations, so
// B-1 of every B observes touch no shared memory. Every cell re-verifies
// the quiescent accuracy contract after flushing: the count must be
// exact and every quantile inside pure bucket rounding against an exact
// sorted reference of all observations.
func E16ShardedHistogram(cfg Config) ([]*Table, error) { return e16Sweep().run(cfg) }

func e16Sweep() sweep {
	const k = 2
	return sweep{
		id:    "E16",
		title: "sharded histogram scaling, 95% observe / 5% p99 query",
		note: `Each row is one (goroutines, shards, batch) cell over independent
rounded-bucket histograms; shards=1 batch=1 is the unsharded baseline.
Observations round into buckets spaced by factor k, so every recorded
value is represented within k (the value-domain Mult of Bounds); a p99
query sums one merged read of the bucket counts and inverts the rank.
batch=B buffers whole observations per handle (B-1 of every B observes
touch no shared memory); the headroom surfaces as the rank-domain
Buffer term (B-1 per handle). Queries are the expensive operation (one
read per bucket per shard); batching removes observe work rather than
contention, so it shows even on a single-CPU host. Every cell
re-verifies the quiescent contract after flushing: exact count, and
quantiles within pure bucket rounding of an exact sorted reference.`,
		readCol:  "queries/s",
		k:        k,
		spec:     []approxobj.Option{approxobj.WithAccuracy(approxobj.Multiplicative(k)), approxobj.WithBound(histBound)},
		shards:   []int{1, 2, 4},
		ops:      30_000,
		quickOps: 4_000,
		seed:     47,
		open: func(gs int, opts []approxobj.Option) (sweepCell, error) {
			h, err := approxobj.NewHistogram(opts...)
			if err != nil {
				return nil, err
			}
			return &histogramCell{h, handles(gs, h.Handle), make([][]uint64, gs)}, nil
		},
	}
}

// histogramCell is an E16 cell: goroutine i observes skewed values
// (400 x an exponential draw, clamped into the domain) and queries the
// p99 through handle i.
type histogramCell struct {
	*approxobj.Histogram
	hs       []approxobj.HistogramHandle
	observed [][]uint64 // per goroutine: every value it observed
}

func (c *histogramCell) loop(i, ops int, rng *rand.Rand, queries *uint64) func() {
	h, buf := c.hs[i], make([]uint64, 0, ops)
	return func() {
		vals := buf
		for j := 0; j < ops; j++ {
			if rng.Float64() < sweepReadFrac {
				h.Quantile(0.99)
				*queries++
			} else {
				v := uint64(rng.ExpFloat64() * 400)
				if v >= histBound {
					v = histBound - 1
				}
				h.Observe(v)
				vals = append(vals, v)
			}
		}
		c.observed[i] = vals
	}
}

// settled flushes every observation buffer; the count must then be
// exact and every quantile within pure bucket rounding of the exact
// sorted reference.
func (c *histogramCell) settled() error {
	var all []uint64
	for i, h := range c.hs {
		h.(approxobj.BatchedHistogramHandle).Flush()
		all = append(all, c.observed[i]...)
	}
	slices.Sort(all)
	r := c.hs[0]
	if err := settledWithin(approxobj.ExactBounds(), uint64(len(all)), r.Count()); err != nil {
		return fmt.Errorf("count: %w", err)
	}
	k := c.K()
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, y := r.Quantile(q), all[histogram.TargetRank(q, uint64(len(all)))-1]
		if got > y || (y > 0 && got*k <= y) {
			return fmt.Errorf("p%.0f = %d outside (%d/%d, %d]", q*100, got, y, k, y)
		}
	}
	return nil
}
