package approxobj_test

import (
	"testing"
	"time"

	"approxobj"
)

// The zero-allocation read path is a designed property of the plane
// (PR 9), not an accident of the current compiler: cached scalar reads
// are one atomic load, uncached scalar reads fold the shards in
// registers, and the vector kinds reuse handle-local scratch. These
// tests gate it exactly with testing.AllocsPerRun, machine-
// independently — the E20r bench records the same numbers into the
// -json trajectory, but a unit test fails faster and under -race too.
//
// The cached cells use an hour of staleness so the combiner goroutine
// never refreshes mid-measurement (the warm-up read pays the one
// inline refresh); allocations by OTHER goroutines would otherwise
// land in the per-run count.

// requireZeroAllocs runs f through testing.AllocsPerRun and fails if
// any run allocated.
func requireZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(100, f); avg != 0 {
		t.Errorf("%s: %.2f allocs per read, want 0", name, avg)
	}
}

func TestReadPathAllocationFree(t *testing.T) {
	const shards = 4
	for _, cached := range []bool{false, true} {
		label := "uncached"
		opts := []approxobj.Option{approxobj.WithProcs(2), approxobj.WithShards(shards)}
		if cached {
			label = "cached"
			opts = append(opts, approxobj.WithReadCache(time.Hour))
		}

		t.Run("counter/"+label, func(t *testing.T) {
			c, err := approxobj.NewCounter(append(opts, approxobj.WithAccuracy(approxobj.Multiplicative(2)))...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			w, r := c.Handle(0), c.Handle(1)
			for i := 0; i < 1000; i++ {
				w.Inc()
			}
			var sink uint64
			sink += r.Read() // warm-up: cached cells refresh inline once
			requireZeroAllocs(t, "counter Read", func() { sink += r.Read() })
			if sink == ^uint64(0) {
				t.Fatal("impossible sink")
			}
		})

		t.Run("max-register/"+label, func(t *testing.T) {
			m, err := approxobj.NewMaxRegister(append(opts, approxobj.WithBound(1<<20))...)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			w, r := m.Handle(0), m.Handle(1)
			for i := 0; i < 1000; i++ {
				w.Write(uint64(i))
			}
			var sink uint64
			sink += r.Read()
			requireZeroAllocs(t, "max-register Read", func() { sink += r.Read() })
			if sink == ^uint64(0) {
				t.Fatal("impossible sink")
			}
		})

		t.Run("snapshot/"+label, func(t *testing.T) {
			sn, err := approxobj.NewSnapshot(opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer sn.Close()
			w, r := sn.Handle(0), sn.Handle(1)
			for i := 1; i <= 1000; i++ {
				w.Update(uint64(i))
			}
			var buf []uint64
			buf = r.ScanInto(buf) // warm-up grows the scratch once
			requireZeroAllocs(t, "snapshot ScanInto", func() { buf = r.ScanInto(buf) })
			if buf[0] != 1000 {
				t.Fatalf("component 0 = %d, want 1000", buf[0])
			}
		})

		t.Run("histogram/"+label, func(t *testing.T) {
			hg, err := approxobj.NewHistogram(append(opts,
				approxobj.WithAccuracy(approxobj.Multiplicative(2)),
				approxobj.WithBound(1<<16))...)
			if err != nil {
				t.Fatal(err)
			}
			defer hg.Close()
			w, r := hg.Handle(0), hg.Handle(1)
			for i := 0; i < 1000; i++ {
				w.Observe(uint64(i))
			}
			var sink uint64
			sink += r.Quantile(0.99)
			requireZeroAllocs(t, "histogram Quantile", func() { sink += r.Quantile(0.99) })
			requireZeroAllocs(t, "histogram Count", func() { sink += r.Count() })
			if sink == ^uint64(0) {
				t.Fatal("impossible sink")
			}
		})
	}
}

// TestTelemetryDisabledZeroCost pins the self-instrumentation
// contract (PR 10) exactly: an object built WITHOUT WithTelemetry pays
// nothing for the instrumentation points threaded through its runtime
// — zero allocations per write and per read, and step counts identical
// to an instrumented twin driven through the same operation sequence
// (telemetry counts events in its own striped atomics, never through
// the objects' base-object primitives). The instrumented twin's hot
// paths must stay allocation-free too: striped counter bumps and
// handle-local accumulators are arithmetic, not allocation.
func TestTelemetryDisabledZeroCost(t *testing.T) {
	const ops = 2000
	tel := approxobj.NewTelemetry()
	build := func(dom *approxobj.Telemetry) (*approxobj.Counter, *approxobj.Histogram) {
		opts := []approxobj.Option{
			approxobj.WithProcs(2),
			approxobj.WithAccuracy(approxobj.Multiplicative(2)),
			approxobj.WithShards(2),
			approxobj.WithBatch(4),
		}
		if dom != nil {
			opts = append(opts, approxobj.WithTelemetry(dom))
		}
		c, err := approxobj.NewCounter(opts...)
		if err != nil {
			t.Fatal(err)
		}
		hg, err := approxobj.NewHistogram(append(opts, approxobj.WithBound(1<<12))...)
		if err != nil {
			t.Fatal(err)
		}
		return c, hg
	}
	plainC, plainH := build(nil)
	defer plainC.Close()
	defer plainH.Close()
	instrC, instrH := build(tel)
	defer instrC.Close()
	defer instrH.Close()

	// Identical sequences through slot 0 of each twin; reads through
	// slot 1.
	drive := func(c *approxobj.Counter, hg *approxobj.Histogram) (cw, cr approxobj.CounterHandle, hw, hr approxobj.HistogramHandle) {
		cw, cr = c.Handle(0), c.Handle(1)
		hw, hr = hg.Handle(0), hg.Handle(1)
		var sink uint64
		for i := 0; i < ops; i++ {
			cw.Inc()
			hw.Observe(uint64(i) % (1 << 12))
			if i%64 == 0 {
				sink += cr.Read()
				sink += hr.Quantile(0.5)
			}
		}
		if sink == ^uint64(0) {
			t.Fatal("impossible sink")
		}
		return cw, cr, hw, hr
	}
	pcw, pcr, phw, phr := drive(plainC, plainH)
	icw, icr, ihw, ihr := drive(instrC, instrH)

	// The step counts must be IDENTICAL, not merely close: telemetry is
	// invisible to the step-counting primitive layer.
	if pcw.Steps() != icw.Steps() || pcr.Steps() != icr.Steps() {
		t.Errorf("counter steps diverge with telemetry: writer %d vs %d, reader %d vs %d",
			pcw.Steps(), icw.Steps(), pcr.Steps(), icr.Steps())
	}
	if phw.Steps() != ihw.Steps() || phr.Steps() != ihr.Steps() {
		t.Errorf("histogram steps diverge with telemetry: writer %d vs %d, reader %d vs %d",
			phw.Steps(), ihw.Steps(), phr.Steps(), ihr.Steps())
	}

	var sink uint64
	requireZeroAllocs(t, "disabled counter Inc", func() { pcw.Inc() })
	requireZeroAllocs(t, "disabled counter Read", func() { sink += pcr.Read() })
	requireZeroAllocs(t, "disabled histogram Observe", func() { phw.Observe(7) })
	requireZeroAllocs(t, "disabled histogram Quantile", func() { sink += phr.Quantile(0.99) })
	requireZeroAllocs(t, "enabled counter Inc", func() { icw.Inc() })
	requireZeroAllocs(t, "enabled counter Read", func() { sink += icr.Read() })
	requireZeroAllocs(t, "enabled histogram Observe", func() { ihw.Observe(7) })
	requireZeroAllocs(t, "enabled histogram Quantile", func() { sink += ihr.Quantile(0.99) })
	if sink == ^uint64(0) {
		t.Fatal("impossible sink")
	}
}

// TestPooledAcquireAllocations pins the acquisition hot path's
// allocation budget: after the first lease builds the slot's handle,
// each acquire/release cycle allocates only the release closure (the
// idempotence guard rides the slot's generation counter, not a fresh
// escaping atomic).
func TestPooledAcquireAllocations(t *testing.T) {
	c, err := approxobj.NewCounter(approxobj.WithProcs(2), approxobj.WithAccuracy(approxobj.Multiplicative(2)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Do(func(h approxobj.CounterHandle) { h.Inc() }) // warm the slot's cached handle
	if avg := testing.AllocsPerRun(100, func() {
		h, release := c.Acquire()
		h.Inc()
		release()
	}); avg > 1 {
		t.Errorf("acquire/release cycle: %.2f allocs, want <= 1 (the release closure)", avg)
	}
}

// TestConstructionFootprint pins what building an object costs before
// its first operation. Base objects materialize on first touch: the
// unbounded max register's epoch registers (one per value epoch
// [2^e, 2^(e+1)), 63 of them per shard) are built by the first write
// into their epoch, so construction allocates per shard, not per epoch,
// and the exact counter's tree — an unbounded max register per node —
// inherits the same footprint. The budgets leave a little headroom over
// the measured 49, 45 and 149 allocations (building every epoch up
// front costs 1,053, 801 and 2,417).
func TestConstructionFootprint(t *testing.T) {
	budget := func(name string, limit float64, build func() (interface{ Close() }, error)) {
		t.Helper()
		avg := testing.AllocsPerRun(20, func() {
			o, err := build()
			if err != nil {
				t.Fatal(err)
			}
			o.Close()
		})
		if avg > limit {
			t.Errorf("%s: %.0f allocs to build, want <= %.0f", name, avg, limit)
		}
	}
	budget("Multiplicative(2) max register, 4 shards", 56, func() (interface{ Close() }, error) {
		return approxobj.NewMaxRegister(approxobj.WithShards(4), approxobj.WithAccuracy(approxobj.Multiplicative(2)))
	})
	budget("exact max register, 4 shards", 52, func() (interface{ Close() }, error) {
		return approxobj.NewMaxRegister(approxobj.WithShards(4))
	})
	budget("exact counter, 4 procs, 4 shards", 168, func() (interface{ Close() }, error) {
		return approxobj.NewCounter(approxobj.WithProcs(4), approxobj.WithShards(4))
	})

	// BaseObjects counts what has materialized. A fresh unbounded max
	// register holds one register per shard: the root of the exact
	// top register (domain {0..64}) that records 1 + the highest epoch
	// written. A write into a new epoch e then adds exactly one epoch's
	// registers — those of a lone bounded register of size 2^e and the
	// same accuracy written the offset v-2^e — plus the top register's
	// newly descended path, measured on a lone exact register of domain
	// {0..64} fed the same top writes.
	bounded := func(acc approxobj.Accuracy, m uint64) *approxobj.MaxRegister {
		r, err := approxobj.NewMaxRegister(approxobj.WithAccuracy(acc), approxobj.WithBound(m))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, acc := range []approxobj.Accuracy{approxobj.Exact(), approxobj.Multiplicative(2)} {
		const shards = 4
		m, err := approxobj.NewMaxRegister(approxobj.WithShards(shards), approxobj.WithAccuracy(acc))
		if err != nil {
			t.Fatal(err)
		}
		if got := m.BaseObjects(); got != shards {
			t.Fatalf("%s: fresh max register holds %d base objects, want %d (one top register per shard, no epochs)", acc, got, shards)
		}
		w := m.Handle(0) // every write lands on slot 0's home shard
		top := bounded(approxobj.Exact(), 65)
		for _, e := range []uint{10, 20, 33} {
			off := uint64(1)<<e/3 + 1
			epoch := bounded(acc, uint64(1)<<e)
			before, topBefore := m.BaseObjects(), top.BaseObjects()
			epoch.Handle(0).Write(off)
			top.Handle(0).Write(uint64(e) + 1)
			want := epoch.BaseObjects() + top.BaseObjects() - topBefore
			w.Write(uint64(1)<<e + off)
			if got := m.BaseObjects() - before; got != want {
				t.Errorf("%s: first write into epoch %d added %d base objects, want %d (one epoch register and the top path)", acc, e, got, want)
			}
		}
	}
}
