package core_test

import (
	"sync"
	"testing"

	"approxobj/internal/core"
	"approxobj/internal/object"
	"approxobj/internal/prim"
)

// TestMultCounterConcurrentSoak hammers one MultCounter from n real
// goroutines through nil-Gate procs (production mode: plain atomics, no
// simulation scheduler) and asserts the k-multiplicative accuracy
// invariant on the final quiescent Read against the true increment count.
// Run with -race this doubles as the data-race check for the production
// code path of Algorithm 1.
func TestMultCounterConcurrentSoak(t *testing.T) {
	for _, tc := range []struct {
		n     int
		k     uint64
		perG  int
		reads int // interleaved reads per goroutine
	}{
		{n: 4, k: 2, perG: 20_000, reads: 200},
		{n: 8, k: 4, perG: 10_000, reads: 200},
		{n: 16, k: 4, perG: 5_000, reads: 100},
	} {
		f := prim.NewFactory(tc.n)
		c, err := core.NewMultCounter(f, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(tc.n)
		for i := 0; i < tc.n; i++ {
			h := c.Handle(f.Proc(i))
			go func() {
				defer wg.Done()
				for j := 0; j < tc.perG; j++ {
					h.Inc()
					if tc.reads > 0 && j%(tc.perG/tc.reads) == 0 {
						h.Read()
					}
				}
			}()
		}
		wg.Wait()

		total := uint64(tc.n * tc.perG)
		acc := object.Bounds{Mult: tc.k}
		for i := 0; i < tc.n; i++ {
			got := c.Handle(f.Proc(i)).Read()
			if !acc.Contains(total, got) {
				t.Errorf("n=%d k=%d: final read %d outside [%d/%d, %d*%d] of true count",
					tc.n, tc.k, got, total, tc.k, total, tc.k)
			}
		}
	}
}
