package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"approxobj/internal/core"
	"approxobj/internal/counter"
	"approxobj/internal/object"
	"approxobj/internal/prim"
)

// throughput runs gs goroutines of opsPer mixed operations (readFrac reads)
// against per-goroutine op functions and returns million ops/sec.
func throughput(seed int64, gs, opsPer int, readFrac float64, mkOps func(i int) (inc func(), read func())) float64 {
	elapsed := race(gs, func(i int) func() {
		inc, read := mkOps(i)
		rng := rand.New(rand.NewSource(seed + int64(i) + 11))
		return func() {
			for j := 0; j < opsPer; j++ {
				if rng.Float64() < readFrac {
					read()
				} else {
					inc()
				}
			}
		}
	})
	return float64(gs*opsPer) / elapsed.Seconds() / 1e6
}

// E7Throughput is the motivation experiment (Section I, [2][4], and the
// scalable-statistics-counter application [10]): on real hardware with real
// goroutines, the relaxed counter's throughput tracks a raw fetch&add and
// leaves the exact linearizable baselines (collect's O(n) reads, a global
// mutex) behind as parallelism grows.
func E7Throughput(cfg Config) ([]*Table, error) {
	maxG := runtime.GOMAXPROCS(0)
	gss := []int{1, 2, 4, 8}
	if maxG > 8 {
		gss = append(gss, maxG)
	}
	opsPer := 400_000
	if cfg.Quick {
		gss = []int{1, 2, 4}
		opsPer = 50_000
	}
	const readFrac = 0.05

	t := &Table{
		ID:    "E7",
		Title: fmt.Sprintf("throughput, Mops/s (95%% inc / 5%% read, GOMAXPROCS=%d)", maxG),
		Note: `Real-goroutine runs. atomic add is the non-linearizable-read hardware
reference; mutex serializes everything; collect pays n-step reads;
Algorithm 1 (k = 16) announces only every t1..t_j increments. Wall-clock
throughput blurs step complexity (GC, scheduler, cache effects — the
reason the paper-faithful experiments E1-E5 count steps instead); on a
single-CPU host all variants serialize and contention gaps are muted.`,
		Header: []string{"goroutines", "atomic add", "mutex", "collect", "mult k=16"},
	}

	for _, gs := range gss {
		// Raw atomic fetch&add.
		var av atomic.Uint64
		atomicRes := throughput(cfg.Seed, gs, opsPer, readFrac, func(int) (func(), func()) {
			return func() { av.Add(1) }, func() { _ = av.Load() }
		})

		// Global mutex counter.
		var mu sync.Mutex
		var mv uint64
		mutexRes := throughput(cfg.Seed, gs, opsPer, readFrac, func(int) (func(), func()) {
			return func() { mu.Lock(); mv++; mu.Unlock() },
				func() { mu.Lock(); _ = mv; mu.Unlock() }
		})

		// Collect counter.
		fc := prim.NewFactory(gs)
		cc, err := counter.NewCollect(fc)
		if err != nil {
			return nil, err
		}
		collectRes := throughput(cfg.Seed, gs, opsPer, readFrac, func(i int) (func(), func()) {
			h := cc.CounterHandle(fc.Proc(i))
			return h.Inc, func() { _ = h.Read() }
		})

		// Algorithm 1, k=16 (valid for n <= 256).
		fm := prim.NewFactory(gs)
		var mc object.Counter
		mc, err = core.NewMultCounter(fm, 16)
		if err != nil {
			return nil, err
		}
		multRes := throughput(cfg.Seed, gs, opsPer, readFrac, func(i int) (func(), func()) {
			h := mc.CounterHandle(fm.Proc(i))
			return h.Inc, func() { _ = h.Read() }
		})

		t.AddRow(gs, atomicRes, mutexRes, collectRes, multRes)
		for _, m := range []struct {
			impl string
			mops float64
		}{{"atomic", atomicRes}, {"mutex", mutexRes}, {"collect", collectRes}, {"mult", multRes}} {
			t.AddRecord(Record{
				Params:  map[string]string{"goroutines": fmt.Sprint(gs), "impl": m.impl},
				NsPerOp: 1e3 / m.mops, // Mops/s -> ns/op
			})
		}
	}
	return []*Table{t}, nil
}
