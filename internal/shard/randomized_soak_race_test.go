package shard_test

import (
	"sync"
	"testing"

	"approxobj/internal/shard"
)

// TestRandomizedConcurrentSoak hammers Morris-backed counters from n
// real goroutines across shard counts and batch sizes — the data-race
// check for the randomized backend under churn (run with -race). The
// per-handle RNG state is the point of interest: every goroutine flips
// its own SplitMix64 stream with no shared mutable state, so the only
// cross-goroutine traffic is the CAS on the shard's exponent register.
// delta is set tight (0.001) so the final envelope assertion itself is
// sound to run unconditionally: the per-read failure probability,
// union-bounded over shards, stays below 1e-2, and the Chebyshev
// parameter is conservative enough that a violation in practice means a
// broken estimator, not bad luck.
func TestRandomizedConcurrentSoak(t *testing.T) {
	const delta = 0.001
	for _, tc := range []struct {
		name string
		k    uint64
		n    int
		cfg  shard.Config
		perG int
	}{
		{name: "morris-1shard", k: 4, n: 8, perG: 10_000},
		{name: "morris-4shards", k: 4, n: 8, cfg: shard.Config{Shards: 4}, perG: 10_000},
		{name: "morris-4shards-batch16", k: 4, n: 8, cfg: shard.Config{Shards: 4, Batch: 16}, perG: 10_000},
		{name: "morris-8shards-batch64", k: 8, n: 16, cfg: shard.Config{Shards: 8, Batch: 64}, perG: 5_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := shard.New(tc.n, tc.k, shard.RandomizedBackend(delta, 0x5eed+int64(tc.n)), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			handles := make([]*shard.Handle, tc.n)
			for i := range handles {
				handles[i] = c.Handle(i)
			}
			var wg sync.WaitGroup
			wg.Add(tc.n)
			for i := 0; i < tc.n; i++ {
				h := handles[i]
				go func() {
					defer wg.Done()
					for j := 0; j < tc.perG; j++ {
						h.Inc()
						if j%1000 == 0 {
							h.Read()
						}
					}
				}()
			}
			wg.Wait()

			bounds := c.Bounds()
			if bounds.Delta <= 0 {
				t.Fatalf("randomized plane reports Delta = %g, want > 0 (Bounds %+v)", bounds.Delta, bounds)
			}
			for _, h := range handles {
				h.Flush()
			}
			total := uint64(tc.n * tc.perG)
			for i, h := range handles {
				if got := h.Read(); !bounds.Contains(total, got) {
					t.Errorf("handle %d: flushed read %d outside envelope %+v of true count %d", i, got, bounds, total)
				}
			}
		})
	}
}
