package bench

import (
	"math/rand"
	"runtime"

	"approxobj"
)

// E12Sharded is the scaling experiment for the sharded counter runtime,
// driven through the public spec API (WithShards x WithBatch over a
// Multiplicative counter): cores x shards x batch sweep of wall-clock
// throughput,
// 95% inc / 5% read. Shards split increment traffic across independent
// Algorithm 1 instances without widening the k-multiplicative envelope;
// batching removes shared-memory work from the Inc hot path entirely at
// the cost of a bounded additive slack (B-1 increments per handle). Every
// cell also re-verifies the combined accuracy envelope at quiescence.
func E12Sharded(cfg Config) ([]*Table, error) { return e12Sweep().run(cfg) }

func e12Sweep() sweep {
	// k must satisfy the mult backend's k >= sqrt(n) per shard for the
	// largest goroutine count in the sweep (n = gs).
	k := max(16, sqrtCeil(runtime.GOMAXPROCS(0)))
	return sweep{
		id:    "E12",
		title: "sharded counter scaling, 95% inc / 5% read",
		note: `Each row is one (goroutines, shards, batch) cell over independent
Algorithm 1 shards; shards=1 batch=1 is the unsharded baseline. Sharding
splits increment traffic across disjoint base objects (sum of S k-mult
shards stays k-mult); batch=B keeps B-1 of every B Incs purely local. On
a single-CPU host the shard columns serialize and gaps are muted (as in
E7); batching still shows, since it removes work rather than contention.`,
		readCol:  "reads/s",
		k:        k,
		spec:     []approxobj.Option{approxobj.WithAccuracy(approxobj.Multiplicative(k))},
		shards:   []int{1, 2, 4, 8},
		ops:      200_000,
		quickOps: 30_000,
		seed:     17,
		open: func(gs int, opts []approxobj.Option) (sweepCell, error) {
			c, err := approxobj.NewCounter(opts...)
			if err != nil {
				return nil, err
			}
			return &counterCell{c, handles(gs, c.Handle), make([]uint64, gs)}, nil
		},
	}
}

// counterCell is an E12 cell: goroutine i Incs and Reads handle i.
type counterCell struct {
	*approxobj.Counter
	hs   []approxobj.CounterHandle
	incs []uint64 // per goroutine
}

func (c *counterCell) loop(i, ops int, rng *rand.Rand, reads *uint64) func() {
	h, incs := c.hs[i], c.incs
	return func() {
		for j := 0; j < ops; j++ {
			if rng.Float64() < sweepReadFrac {
				h.Read()
				*reads++
			} else {
				h.Inc()
				incs[i]++
			}
		}
	}
}

// settled checks the combined read against the flushed envelope of the
// true count.
func (c *counterCell) settled() error {
	var total uint64
	for i, h := range c.hs {
		h.(approxobj.BatchedCounterHandle).Flush()
		total += c.incs[i]
	}
	return settledWithin(c.Bounds(), total, c.hs[0].Read())
}
