package shard_test

import (
	"sync"
	"testing"

	"approxobj/internal/shard"
)

// TestShardedConcurrentSoak hammers sharded counters from n real
// goroutines (nil-Gate procs: the production atomic path) across backends,
// shard counts and batch sizes, then asserts the documented combined
// envelope on the final Read — first with handle buffers still loaded
// (full Bounds, including the Buffer term), then after flushing every
// handle (Buffer = 0: the pure shard-composition envelope). Run with -race
// this is the data-race check for the whole shard runtime.
func TestShardedConcurrentSoak(t *testing.T) {
	for _, tc := range []struct {
		name string
		k    uint64
		n    int
		be   shard.Backend
		cfg  shard.Config
		perG int
	}{
		{name: "mult-1shard", k: 4, n: 8, be: shard.MultBackend(), perG: 10_000},
		{name: "mult-4shards", k: 4, n: 8, be: shard.MultBackend(), cfg: shard.Config{Shards: 4}, perG: 10_000},
		{name: "mult-4shards-batch16", k: 4, n: 8, be: shard.MultBackend(), cfg: shard.Config{Shards: 4, Batch: 16}, perG: 10_000},
		{name: "mult-8shards-batch64", k: 8, n: 16, be: shard.MultBackend(), cfg: shard.Config{Shards: 8, Batch: 64}, perG: 5_000},
		{name: "aach-4shards", k: 0, n: 8, be: shard.AACHBackend(), cfg: shard.Config{Shards: 4}, perG: 2_000},
		{name: "aach-4shards-batch8", k: 0, n: 8, be: shard.AACHBackend(), cfg: shard.Config{Shards: 4, Batch: 8}, perG: 2_000},
		{name: "additive-4shards", k: 64, n: 8, be: shard.AdditiveBackend(), cfg: shard.Config{Shards: 4}, perG: 10_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := shard.New(tc.n, tc.k, tc.be, tc.cfg)
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

			total := uint64(tc.n * tc.perG)
			bounds := c.Bounds()
			if got := handles[0].Read(); !bounds.Contains(total, got) {
				t.Errorf("pre-flush read %d outside envelope %+v of true count %d", got, bounds, total)
			}
			for _, h := range handles {
				h.Flush()
			}
			bounds.Buffer = 0
			for i, h := range handles {
				if got := h.Read(); !bounds.Contains(total, got) {
					t.Errorf("handle %d: flushed read %d outside envelope %+v of true count %d", i, got, bounds, total)
				}
			}
		})
	}
}
