package shard_test

import (
	"sync"
	"testing"

	"approxobj/internal/shard"
)

// TestShardedMaxRegConcurrentSoak hammers sharded max registers from n
// real goroutines (nil-Gate procs: the production atomic path) across
// backends, shard counts and elision windows, then asserts the documented
// combined envelope on the final Read — first with elided writes still
// pending (full Bounds, including the Buffer headroom), then after
// flushing every handle (Buffer = 0: the pure shard-composition
// envelope, which for max registers is the per-shard envelope verbatim).
// Run with -race this is the data-race check for the max-register side of
// the unified runtime.
func TestShardedMaxRegConcurrentSoak(t *testing.T) {
	const bound = uint64(1) << 40
	for _, tc := range []struct {
		name string
		k    uint64
		n    int
		be   shard.MaxRegBackend
		cfg  shard.Config
		perG int
	}{
		{name: "exact-1shard", k: 1, n: 8, be: shard.ExactMaxBackend(), perG: 10_000},
		{name: "exact-4shards", k: 1, n: 8, be: shard.ExactMaxBackend(), cfg: shard.Config{Shards: 4}, perG: 10_000},
		{name: "exact-4shards-batch16", k: 1, n: 8, be: shard.ExactMaxBackend(), cfg: shard.Config{Shards: 4, Batch: 16}, perG: 10_000},
		{name: "exact-bounded-4shards-batch8", k: 1, n: 8, be: shard.ExactBoundedMaxBackend(bound), cfg: shard.Config{Shards: 4, Batch: 8}, perG: 5_000},
		{name: "mult-4shards", k: 4, n: 8, be: shard.MultMaxBackend(), cfg: shard.Config{Shards: 4}, perG: 10_000},
		{name: "mult-8shards-batch64", k: 8, n: 16, be: shard.MultMaxBackend(), cfg: shard.Config{Shards: 8, Batch: 64}, perG: 5_000},
		{name: "mult-bounded-4shards-batch16", k: 2, n: 8, be: shard.MultBoundedMaxBackend(bound), cfg: shard.Config{Shards: 4, Batch: 16}, perG: 5_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := shard.NewMaxReg(tc.n, tc.k, tc.be, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			handles := make([]*shard.MaxRegHandle, tc.n)
			for i := range handles {
				handles[i] = m.Handle(i)
			}
			var wg sync.WaitGroup
			wg.Add(tc.n)
			for i := 0; i < tc.n; i++ {
				h := handles[i]
				id := uint64(i)
				go func() {
					defer wg.Done()
					for j := 1; j <= tc.perG; j++ {
						v := uint64(j)*uint64(tc.n) + id
						h.Write(v)
						if j%16 == 0 {
							h.Write(v / 3) // non-monotone: dominated, must be free
						}
						if j%1000 == 0 {
							h.Read()
						}
					}
				}()
			}
			wg.Wait()

			trueMax := uint64(tc.perG)*uint64(tc.n) + uint64(tc.n) - 1
			bounds := m.Bounds()
			if got := handles[0].Read(); !bounds.Contains(trueMax, got) {
				t.Errorf("pre-flush read %d outside envelope %+v of true max %d", got, bounds, trueMax)
			}
			for _, h := range handles {
				h.Flush()
			}
			bounds.Buffer = 0
			for i, h := range handles {
				if got := h.Read(); !bounds.Contains(trueMax, got) {
					t.Errorf("handle %d: flushed read %d outside envelope %+v of true max %d", i, got, bounds, trueMax)
				}
			}
		})
	}
}
