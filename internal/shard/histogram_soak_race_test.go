package shard_test

import (
	"math/rand"
	"sync"
	"testing"

	"approxobj/internal/histogram"
	"approxobj/internal/shard"
)

// TestShardedHistogramConcurrentSoak hammers sharded histograms from n
// real goroutines (nil-Gate procs: the production atomic path) across
// shard counts and batch sizes — every writer observing a pseudorandom
// value stream while also running queries — then asserts the exact
// merged bucket counts after flushing every handle against each writer's
// locally tracked reference. Run with -race this is the data-race check
// for the histogram side of the backend plane.
func TestShardedHistogramConcurrentSoak(t *testing.T) {
	const k = 2
	bk, err := histogram.NewBuckets(k, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		n    int
		cfg  shard.Config
		perG int
	}{
		{name: "1shard", n: 4, perG: 2_000},
		{name: "4shards", n: 8, cfg: shard.Config{Shards: 4}, perG: 2_000},
		{name: "4shards-batch16", n: 8, cfg: shard.Config{Shards: 4, Batch: 16}, perG: 2_000},
		{name: "3shards-batch64", n: 6, cfg: shard.Config{Shards: 3, Batch: 64}, perG: 1_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hg, err := shard.NewHistogram(tc.n, k, bk.N(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			handles := make([]*shard.HistHandle, tc.n)
			for i := range handles {
				handles[i] = hg.Handle(i)
			}
			local := make([][]uint64, tc.n) // per-writer exact reference
			var wg sync.WaitGroup
			wg.Add(tc.n)
			for i := 0; i < tc.n; i++ {
				h := handles[i]
				ref := make([]uint64, bk.N())
				local[i] = ref
				rng := rand.New(rand.NewSource(int64(i) + 19))
				go func() {
					defer wg.Done()
					for j := 1; j <= tc.perG; j++ {
						v := uint64(rng.ExpFloat64() * 500)
						if v >= 1<<16 {
							v = 1<<16 - 1
						}
						b := bk.Index(v)
						h.Add(b)
						ref[b]++
						if j%250 == 0 {
							counts := h.Buckets()
							histogram.Quantile(bk, counts, 0.9)
							histogram.Rank(bk, counts, v)
						}
					}
				}()
			}
			wg.Wait()

			for _, h := range handles {
				h.Flush()
			}
			counts := handles[0].Buckets()
			want := make([]uint64, bk.N())
			for _, ref := range local {
				for b, c := range ref {
					want[b] += c
				}
			}
			for b := range want {
				if counts[b] != want[b] {
					t.Errorf("bucket %d = %d after flush, want exactly %d", b, counts[b], want[b])
				}
			}
			if c := histogram.Count(counts); c != uint64(tc.n*tc.perG) {
				t.Errorf("count = %d after flush, want %d", c, tc.n*tc.perG)
			}
		})
	}
}
