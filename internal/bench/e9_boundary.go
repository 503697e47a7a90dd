package bench

import (
	"fmt"

	"approxobj/internal/core"
	"approxobj/internal/object"
	"approxobj/internal/prim"
)

// E9Boundary reproduces the accuracy gap this project found in the paper's
// Claim III.6 (see the internal/core package docs): with the paper's
// verbatim first threshold t1 = k, n processes that lose switch_0 each hold
// up to k-1 unannounced increments, so a read that sees only switch_0
// returns k while the true count reaches 1 + n(k-1) > k^2 whenever
// n > k+1 — outside the k-multiplicative envelope even though k >= sqrt(n)
// holds. The repaired default threshold t1 = min(k, (k^2-1)/n + 1) keeps
// the same schedule inside the envelope.
func E9Boundary(cfg Config) ([]*Table, error) {
	type scenario struct {
		n int
		k uint64
	}
	scenarios := []scenario{{4, 2}, {8, 5}, {16, 7}, {64, 9}}
	if cfg.Quick {
		scenarios = scenarios[:2]
	}

	t := &Table{
		ID:    "E9",
		Title: "Claim III.6 boundary case: verbatim t1 = k vs repaired threshold",
		Note: `Schedule: process 0 sets switch_0 on its first increment; every process
then stops one increment short of its announcement threshold. A fresh
reader sees only switch_0 and answers ReturnValue(0,0) = k. Envelope
column is [ceil(v/k), v*k] for the true count v.`,
		Header: []string{"n", "k", "variant", "t1", "true v", "read x", "envelope", "within"},
	}

	for _, sc := range scenarios {
		for _, variant := range []string{"verbatim", "repaired"} {
			opts := []core.Option{}
			if variant == "verbatim" {
				opts = append(opts, core.Verbatim())
			}
			f := prim.NewFactory(sc.n)
			c, err := core.NewMultCounter(f, sc.k, opts...)
			if err != nil {
				return nil, err
			}
			handles := make([]*core.MultHandle, sc.n)
			for i := range handles {
				handles[i] = c.Handle(f.Proc(i))
			}
			// Process 0 announces switch_0 on its first increment and then
			// holds k-1 more below the verbatim threshold k; every other
			// process loses switch_0 and holds k-1. Under verbatim
			// thresholds the true count reaches k + (n-1)(k-1) > k^2 for
			// n > k+1 while only switch_0 is set. The repaired variant
			// sees the identical schedule.
			truth := uint64(0)
			for i := 0; i < sc.n; i++ {
				iters := sc.k - 1
				if i == 0 {
					iters = sc.k
				}
				for j := uint64(0); j < iters; j++ {
					handles[i].Inc()
					truth++
				}
			}
			x := c.Handle(f.Proc(0)).Read()
			acc := object.Bounds{Mult: sc.k}
			within := "ok"
			if !acc.Contains(truth, x) {
				within = "VIOLATED"
			}
			t.AddRow(sc.n, sc.k, variant, c.FirstThreshold(), truth, x,
				fmt.Sprintf("[%d, %d]", (truth+sc.k-1)/sc.k, truth*sc.k), within)
		}
	}
	return []*Table{t}, nil
}
