// Benchmarks regenerating the paper's results (one per experiment table;
// `approxbench -list` prints the index) plus ablation benches for the
// design decisions of the primitive layer and Algorithm 1. Step-complexity metrics are reported through
// b.ReportMetric as steps/op alongside wall-clock ns/op, since step counts
// — not time — are the paper's measure (GC and the Go scheduler blur
// wall-clock numbers).
package approxobj_test

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"approxobj"
	"approxobj/internal/bench"
	"approxobj/internal/core"
	"approxobj/internal/counter"
	"approxobj/internal/lowerbound"
	"approxobj/internal/maxreg"
	"approxobj/internal/object"
	"approxobj/internal/prim"
)

// E1 — Theorem III.9: amortized steps of counters (10% reads).

func benchCounterAmortized(b *testing.B, mk func(f *prim.Factory) (object.Counter, error), n int) {
	f := prim.NewFactory(n)
	c, err := mk(f)
	if err != nil {
		b.Fatal(err)
	}
	procs := f.Procs()
	handles := make([]object.CounterHandle, n)
	for i := range handles {
		handles[i] = c.CounterHandle(procs[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := handles[i%n]
		if i%10 == 0 {
			h.Read()
		} else {
			h.Inc()
		}
	}
	b.StopTimer()
	var steps uint64
	for _, p := range procs {
		steps += p.Steps()
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
}

func BenchmarkE1AmortizedMultCounter(b *testing.B) {
	benchCounterAmortized(b, func(f *prim.Factory) (object.Counter, error) {
		return core.NewMultCounter(f, 8)
	}, 64)
}

func BenchmarkE1AmortizedCollect(b *testing.B) {
	benchCounterAmortized(b, func(f *prim.Factory) (object.Counter, error) {
		return counter.NewCollect(f)
	}, 64)
}

func BenchmarkE1AmortizedAACH(b *testing.B) {
	benchCounterAmortized(b, func(f *prim.Factory) (object.Counter, error) {
		return counter.NewAACH(f)
	}, 64)
}

// E2/E6 — Section III-D: awareness dissemination in the
// one-inc-one-read workload.

func BenchmarkE2AwarenessLowerBound(b *testing.B) {
	mk := func(f *prim.Factory) (object.Counter, error) { return counter.NewCollect(f) }
	var steps int
	for i := 0; i < b.N; i++ {
		res, err := lowerbound.Awareness(mk, 64, 1, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		steps += res.TotalSteps
	}
	b.ReportMetric(float64(steps)/float64(b.N*128), "steps/op")
}

// E3 — Theorem IV.2: worst-case max-register operations at m = 2^48.

func benchMaxRegOps(b *testing.B, w func(p *prim.Proc, v uint64), r func(p *prim.Proc) uint64, p *prim.Proc, m uint64) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			w(p, uint64(i)%(m-1)+1)
		} else {
			r(p)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(p.Steps())/float64(b.N), "steps/op")
}

func BenchmarkE3ExactBoundedMaxReg(b *testing.B) {
	f := prim.NewFactory(1)
	reg, err := maxreg.NewBounded(f, 1<<48)
	if err != nil {
		b.Fatal(err)
	}
	benchMaxRegOps(b, reg.Write, reg.Read, f.Proc(0), 1<<48)
}

func BenchmarkE3KMultBoundedMaxReg(b *testing.B) {
	f := prim.NewFactory(1)
	reg, err := core.NewKMultMaxReg(f, 1<<48, 2)
	if err != nil {
		b.Fatal(err)
	}
	benchMaxRegOps(b, reg.Write, reg.Read, f.Proc(0), 1<<48)
}

// E4/E5 — Lemmas V.1/V.3: full perturbing-execution constructions.

func BenchmarkE4PerturbMaxReg(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := lowerbound.PerturbMaxReg(func(f *prim.Factory) (object.MaxReg, error) {
			return core.NewKMultMaxReg(f, 1<<16, 2)
		}, 32, 1<<16, 2, 1_000_000)
		if err != nil || res.Failed {
			b.Fatalf("err=%v res=%+v", err, res)
		}
		b.ReportMetric(float64(res.Rounds), "rounds")
	}
}

func BenchmarkE5PerturbCounter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := lowerbound.PerturbCounter(func(f *prim.Factory) (object.Counter, error) {
			return core.NewMultCounter(f, 2, core.Unchecked())
		}, 24, 1<<10, 2, 1_000_000)
		if err != nil || res.Failed {
			b.Fatalf("err=%v res=%+v", err, res)
		}
		b.ReportMetric(float64(res.Rounds), "rounds")
	}
}

// E7 — motivation: real-goroutine throughput (95% inc / 5% read).

func BenchmarkE7ThroughputAtomicAdd(b *testing.B) {
	var v atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if i%20 == 0 {
				_ = v.Load()
			} else {
				v.Add(1)
			}
			i++
		}
	})
}

func BenchmarkE7ThroughputMultCounter(b *testing.B) {
	const slots = 64
	c, err := approxobj.NewCounter(
		approxobj.WithProcs(slots),
		approxobj.WithAccuracy(approxobj.Multiplicative(8)),
	)
	if err != nil {
		b.Fatal(err)
	}
	var slot atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		h := c.Handle(int(slot.Add(1)-1) % slots)
		i := 0
		for pb.Next() {
			if i%20 == 0 {
				_ = h.Read()
			} else {
				h.Inc()
			}
			i++
		}
	})
}

func BenchmarkE7ThroughputExact(b *testing.B) {
	const slots = 64
	c, err := approxobj.NewCounter(approxobj.WithProcs(slots))
	if err != nil {
		b.Fatal(err)
	}
	var slot atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		h := c.Handle(int(slot.Add(1)-1) % slots)
		i := 0
		for pb.Next() {
			if i%20 == 0 {
				_ = h.Read()
			} else {
				h.Inc()
			}
			i++
		}
	})
}

// E8 — the sketched unbounded extension: ops at 2^40 value scale.

func BenchmarkE8UnboundedExactMaxReg(b *testing.B) {
	f := prim.NewFactory(1)
	reg, err := maxreg.NewUnbounded(f, maxreg.ExactFactory)
	if err != nil {
		b.Fatal(err)
	}
	benchMaxRegOps(b, reg.Write, reg.Read, f.Proc(0), 1<<40)
}

func BenchmarkE8UnboundedKMultMaxReg(b *testing.B) {
	f := prim.NewFactory(1)
	reg, err := core.NewKMultUnboundedMaxReg(f, 2)
	if err != nil {
		b.Fatal(err)
	}
	benchMaxRegOps(b, reg.Write, reg.Read, f.Proc(0), 1<<40)
}

// E9 — the Claim III.6 boundary scenario (table generation).

func BenchmarkE9BoundaryScenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E9Boundary(bench.Config{Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// F1 — Figure 1 scan-stop configurations.

func BenchmarkF1ReadCases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.F1ReadCases(bench.Config{Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablations: each quantifies one design decision against the simpler
// alternative it replaced.

// BenchmarkAblationGateOverhead quantifies the gate decision: the cost of routing
// primitives through prim.Proc (nil gate) versus a bare atomic operation.
func BenchmarkAblationGateOverhead(b *testing.B) {
	b.Run("prim.Reg", func(b *testing.B) {
		f := prim.NewFactory(1)
		p := f.Proc(0)
		r := f.Reg()
		for i := 0; i < b.N; i++ {
			r.Write(p, uint64(i))
			_ = r.Read(p)
		}
	})
	b.Run("raw-atomic", func(b *testing.B) {
		var r atomic.Uint64
		for i := 0; i < b.N; i++ {
			r.Store(uint64(i))
			_ = r.Load()
		}
	})
}

// BenchmarkAblationReadMemoization quantifies read memoization: a persistent
// handle resumes its switch scan at last_i; a fresh handle per read rescans
// from switch_0 every time.
func BenchmarkAblationReadMemoization(b *testing.B) {
	setup := func(b *testing.B) (*core.MultCounter, *prim.Factory) {
		f := prim.NewFactory(2)
		c, err := core.NewMultCounter(f, 2)
		if err != nil {
			b.Fatal(err)
		}
		w := c.Handle(f.Proc(0))
		for i := 0; i < 1_000_000; i++ {
			w.Inc()
		}
		return c, f
	}
	b.Run("memoized", func(b *testing.B) {
		c, f := setup(b)
		p := f.Proc(1)
		h := c.Handle(p)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = h.Read()
		}
		b.StopTimer()
		b.ReportMetric(float64(p.Steps())/float64(b.N), "steps/op")
	})
	b.Run("fresh-handle", func(b *testing.B) {
		c, f := setup(b)
		p := f.Proc(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = c.Handle(p).Read()
		}
		b.StopTimer()
		b.ReportMetric(float64(p.Steps())/float64(b.N), "steps/op")
	})
}

// BenchmarkAblationFirstThreshold quantifies the boundary repair's cost
// (decision: t1 = min(k, (k^2-1)/n+1) instead of the paper's k): smaller
// thresholds announce more often.
func BenchmarkAblationFirstThreshold(b *testing.B) {
	run := func(b *testing.B, opts ...core.Option) {
		f := prim.NewFactory(16)
		c, err := core.NewMultCounter(f, 4, opts...)
		if err != nil {
			b.Fatal(err)
		}
		p := f.Proc(0)
		h := c.Handle(p)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Inc()
		}
		b.StopTimer()
		b.ReportMetric(float64(p.Steps())/float64(b.N), "steps/op")
	}
	b.Run("repaired", func(b *testing.B) { run(b) })
	b.Run("verbatim", func(b *testing.B) { run(b, core.Verbatim()) })
}

// Micro-benchmarks for the public API.

func BenchmarkCounterInc(b *testing.B) {
	c, err := approxobj.NewCounter(approxobj.WithAccuracy(approxobj.Multiplicative(2)))
	if err != nil {
		b.Fatal(err)
	}
	h := c.Handle(0)
	for i := 0; i < b.N; i++ {
		h.Inc()
	}
}

func BenchmarkCounterRead(b *testing.B) {
	c, err := approxobj.NewCounter(approxobj.WithAccuracy(approxobj.Multiplicative(2)))
	if err != nil {
		b.Fatal(err)
	}
	h := c.Handle(0)
	for i := 0; i < 100000; i++ {
		h.Inc()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Read()
	}
}

// BenchmarkCounterReadDeep reads Algorithm 1 directly with its scan
// stopped in interval q = 12, where the cost of ReturnValue in q shows.
func BenchmarkCounterReadDeep(b *testing.B) {
	f := prim.NewFactory(1)
	c, err := core.NewMultCounter(f, 2)
	if err != nil {
		b.Fatal(err)
	}
	h := c.Handle(f.Proc(0))
	for _, q := h.ScanStop(); q < 12; _, q = h.ScanStop() {
		for range 1 << 10 {
			h.Inc()
		}
		h.Read()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Read()
	}
}

// logUniform returns n values whose bit lengths spread evenly over the
// uint64 domain, the spread a rounded histogram is built for.
func logUniform(n int) []uint64 {
	rng := rand.New(rand.NewSource(1))
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = rng.Uint64() >> rng.Intn(64)
	}
	return vs
}

func BenchmarkHistogramObserve(b *testing.B) {
	h, err := approxobj.NewHistogram(approxobj.WithAccuracy(approxobj.Multiplicative(2)))
	if err != nil {
		b.Fatal(err)
	}
	hh := h.Handle(0)
	vs := logUniform(1 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hh.Observe(vs[i%len(vs)])
	}
}

// BenchmarkRegistrySnapshotHistograms snapshots a registry of 64
// 4-shard histograms, each prefilled across every bucket: the
// histogram half of a scrape before rendering.
func BenchmarkRegistrySnapshotHistograms(b *testing.B) {
	reg := approxobj.NewRegistry()
	defer reg.Close()
	vs := logUniform(1 << 12)
	for i := range 64 {
		h, err := reg.HistogramObject(fmt.Sprintf("h%02d", i),
			approxobj.WithShards(4), approxobj.WithAccuracy(approxobj.Multiplicative(2)))
		if err != nil {
			b.Fatal(err)
		}
		h.Do(func(hh approxobj.HistogramHandle) {
			for _, v := range vs {
				hh.Observe(v)
			}
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = reg.Snapshot()
	}
}

func BenchmarkBoundedMaxRegisterWrite(b *testing.B) {
	r, err := approxobj.NewMaxRegister(approxobj.WithProcs(1), approxobj.WithAccuracy(approxobj.Multiplicative(2)), approxobj.WithBound(1<<40))
	if err != nil {
		b.Fatal(err)
	}
	h := r.Handle(0)
	for i := 0; i < b.N; i++ {
		h.Write(uint64(i) % (1<<40 - 1))
	}
}

func BenchmarkBoundedMaxRegisterRead(b *testing.B) {
	r, err := approxobj.NewMaxRegister(approxobj.WithProcs(1), approxobj.WithAccuracy(approxobj.Multiplicative(2)), approxobj.WithBound(1<<40))
	if err != nil {
		b.Fatal(err)
	}
	h := r.Handle(0)
	h.Write(1<<40 - 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Read()
	}
}

func BenchmarkSimMachineStep(b *testing.B) {
	// Cost of one lock-step simulated primitive (channel round-trip):
	// calibrates how large simulated experiments can be.
	m := newSimForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m.Step(0) {
			b.Fatal("program ended early")
		}
	}
}
