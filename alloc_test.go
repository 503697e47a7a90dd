package approxobj_test

import (
	"testing"
	"time"

	"approxobj"
)

// The zero-allocation read path is a designed property of the plane
// (PR 9), not an accident of the current compiler: cached scalar reads
// are one atomic load, uncached scalar reads fold the shards in
// registers, and the vector kinds fold every shard into the reader's
// reused buffer. These
// tests gate it exactly with testing.AllocsPerRun, machine-
// independently — the E20r bench records the same numbers into the
// -json trajectory, but a unit test fails faster and under -race too.
//
// The cached cells use an hour of staleness so no read refreshes
// mid-measurement (the warm-up read pays the one inline refresh).

// requireZeroAllocs runs f through testing.AllocsPerRun and fails if
// any run allocated.
func requireZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(100, f); avg != 0 {
		t.Errorf("%s: %.2f allocs per call, want 0", name, avg)
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

// TestPooledAcquireAllocations pins the lease path's allocation budget
// once every slot's handle is built: Do leases without a release
// closure and allocates nothing for every kind, so a pooled read such as
// Counter.Snapshot allocates nothing either, and an Acquire/release
// cycle allocates only its release closure (the idempotence guard rides
// the slot's lease generation, not a fresh escaping atomic).
func TestPooledAcquireAllocations(t *testing.T) {
	mult := approxobj.WithAccuracy(approxobj.Multiplicative(2))
	c, err := approxobj.NewCounter(approxobj.WithProcs(2), mult)
	if err != nil {
		t.Fatal(err)
	}
	r, err := approxobj.NewMaxRegister(approxobj.WithProcs(2), mult)
	if err != nil {
		t.Fatal(err)
	}
	s, err := approxobj.NewSnapshot(approxobj.WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	h, err := approxobj.NewHistogram(approxobj.WithProcs(2), mult)
	if err != nil {
		t.Fatal(err)
	}
	inc := func(h approxobj.CounterHandle) { h.Inc() }
	write := func(h approxobj.MaxRegisterHandle) { h.Write(5) }
	update := func(h approxobj.SnapshotHandle) { h.Update(3) }
	observe := func(h approxobj.HistogramHandle) { h.Observe(7) }
	// Leases take the slots in FIFO order, so two rounds build both
	// slots' handles and their first-write state.
	for range 2 {
		c.Do(inc)
		r.Do(write)
		s.Do(update)
		h.Do(observe)
	}
	requireZeroAllocs(t, "counter Do", func() { c.Do(inc) })
	requireZeroAllocs(t, "max register Do", func() { r.Do(write) })
	requireZeroAllocs(t, "snapshot Do", func() { s.Do(update) })
	requireZeroAllocs(t, "histogram Do", func() { h.Do(observe) })
	requireZeroAllocs(t, "counter Snapshot(false)", func() {
		if _, err := c.Snapshot(false); err != nil {
			t.Fatal(err)
		}
	})
	if avg := testing.AllocsPerRun(100, func() {
		h, release := c.Acquire()
		h.Inc()
		release()
	}); avg > 1 {
		t.Errorf("acquire/release cycle: %.2f allocs, want <= 1 (the release closure)", avg)
	}
}

// TestReadsBuildNothing checks that reads hold no storage: in the
// paper's model a never-written register reads its initial value in one
// step, so storage is owed only to what a write has touched. Every kind
// and accuracy row, cumulative and windowed, is built in a Registry (so
// the snapshot slot exists) and read through every slot and
// Registry.Snapshot; its BaseObjects must not move.
func TestReadsBuildNothing(t *testing.T) {
	type built struct {
		obj  interface{ BaseObjects() uint64 }
		n    int
		read func(i int)
	}
	counter := func(reg *approxobj.Registry, name string, opts []approxobj.Option) (built, error) {
		c, err := reg.Counter(name, opts...)
		if err != nil {
			return built{}, err
		}
		return built{c, c.N(), func(i int) { c.Handle(i).Read() }}, nil
	}
	maxRegister := func(reg *approxobj.Registry, name string, opts []approxobj.Option) (built, error) {
		m, err := reg.MaxRegister(name, opts...)
		if err != nil {
			return built{}, err
		}
		return built{m, m.N(), func(i int) { m.Handle(i).Read() }}, nil
	}
	snapshot := func(reg *approxobj.Registry, name string, opts []approxobj.Option) (built, error) {
		s, err := reg.SnapshotObject(name, opts...)
		if err != nil {
			return built{}, err
		}
		return built{s, s.N(), func(i int) { s.Handle(i).Scan() }}, nil
	}
	histogram := func(reg *approxobj.Registry, name string, opts []approxobj.Option) (built, error) {
		h, err := reg.HistogramObject(name, opts...)
		if err != nil {
			return built{}, err
		}
		return built{h, h.N(), func(i int) {
			s := h.Handle(i)
			s.Count()
			s.Quantile(0.5)
		}}, nil
	}
	for _, row := range []struct {
		name  string
		build func(*approxobj.Registry, string, []approxobj.Option) (built, error)
		opts  []approxobj.Option
	}{
		{"counter Exact", counter, []approxobj.Option{approxobj.WithAccuracy(approxobj.Exact())}},
		{"counter Additive(4)", counter, []approxobj.Option{approxobj.WithAccuracy(approxobj.Additive(4))}},
		{"counter Multiplicative(2)", counter, []approxobj.Option{approxobj.WithAccuracy(approxobj.Multiplicative(2))}},
		{"counter Randomized(2, 0.01)", counter, []approxobj.Option{approxobj.WithAccuracy(approxobj.Randomized(2, 0.01))}},
		{"max register Exact", maxRegister, []approxobj.Option{approxobj.WithAccuracy(approxobj.Exact())}},
		{"max register Exact, bounded", maxRegister, []approxobj.Option{approxobj.WithAccuracy(approxobj.Exact()), approxobj.WithBound(1 << 20)}},
		{"max register Multiplicative(2)", maxRegister, []approxobj.Option{approxobj.WithAccuracy(approxobj.Multiplicative(2))}},
		{"max register Multiplicative(2), bounded", maxRegister, []approxobj.Option{approxobj.WithAccuracy(approxobj.Multiplicative(2)), approxobj.WithBound(1 << 20)}},
		{"snapshot", snapshot, nil},
		{"histogram Multiplicative(2)", histogram, []approxobj.Option{approxobj.WithAccuracy(approxobj.Multiplicative(2))}},
		{"histogram Exact, bounded", histogram, []approxobj.Option{approxobj.WithAccuracy(approxobj.Exact()), approxobj.WithBound(64)}},
	} {
		for _, windowed := range []bool{false, true} {
			name := row.name
			opts := append([]approxobj.Option{approxobj.WithProcs(2), approxobj.WithShards(4)}, row.opts...)
			if windowed {
				name += ", windowed"
				opts = append(opts, approxobj.WithWindow(time.Hour, 4))
			}
			reg := approxobj.NewRegistry()
			b, err := row.build(reg, "obj", opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			before := b.obj.BaseObjects()
			for i := 0; i < b.n; i++ {
				b.read(i)
			}
			reg.Snapshot()
			if got := b.obj.BaseObjects(); got != before {
				t.Errorf("%s: reads through every slot and Registry.Snapshot took BaseObjects from %d to %d", name, before, got)
			}
			reg.Close()
		}
	}
}

// TestConstructionFootprint pins what building an object costs before
// its first operation. All shards of a plane share one prim.Factory, so
// construction allocates one factory and one proc per slot, not one per
// shard. Base objects materialize on first write: the unbounded max
// register's epoch registers (one per value epoch [2^e, 2^(e+1)), 63 of
// them per shard) and its epoch table are built by the first write into
// an epoch, so construction allocates per shard, not per epoch, and the
// exact counter's tree — an unbounded max register per node — inherits
// the same footprint. The budgets leave a little headroom over the
// measured 35, 31 and 126 allocations. A histogram's bucket rows and its
// handles' bucket buffers are built by their slot's first write: the
// 2-slot, 4-shard histogram measures 27 allocations. Algorithm 1's
// switch table and helping row are built by the first announcement: the
// 2-slot, 4-shard Multiplicative(4) counter measures 32 allocations.
// With WithReadCache its 16-shard twin measures 88 (95 with a combiner
// goroutine per cache; 126 while every bound slot, the registry's
// snapshot slot included, held a reader on every shard; 201 with a
// factory per shard besides), and its 4-shard twin windowed over 4
// epochs 125 (132 with the combiner; 264 with a factory per shard and a
// read cache per epoch).
//
// A slot binds its readers on the shards other than its home by its
// first uncached combined read, and a combined read folds every shard
// into the caller's buffer. The last two rows build an object and read
// once through every caller slot, and their budgets sit one allocation
// above the count. The cached 16-shard counter measures 131: its caller
// slots read through the cache, whose every refresh runs through the
// reserved refresh slot's readers, so only that slot binds all 16
// shards (138 with a combiner goroutine per cache, 200 when every bound
// slot binds all 16 at construction, 202 when caller slots also
// refreshed through readers of their own). The
// uncached 2-slot, 4-shard histogram measures 45: each slot binds its 3
// other shards and folds them into its query buffer (47 with a fold
// buffer per slot beside it).
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
	budget("Multiplicative(2) max register, 4 shards", 42, func() (interface{ Close() }, error) {
		return approxobj.NewMaxRegister(approxobj.WithShards(4), approxobj.WithAccuracy(approxobj.Multiplicative(2)))
	})
	budget("exact max register, 4 shards", 38, func() (interface{ Close() }, error) {
		return approxobj.NewMaxRegister(approxobj.WithShards(4))
	})
	budget("exact counter, 4 procs, 4 shards", 145, func() (interface{ Close() }, error) {
		return approxobj.NewCounter(approxobj.WithProcs(4), approxobj.WithShards(4))
	})
	newHistogram := func() (*approxobj.Histogram, error) {
		return approxobj.NewHistogram(approxobj.WithProcs(2), approxobj.WithShards(4), approxobj.WithAccuracy(approxobj.Multiplicative(2)))
	}
	budget("Multiplicative(2) histogram, 2 procs, 4 shards", 30, func() (interface{ Close() }, error) {
		return newHistogram()
	})
	newMultCounter := func() (*approxobj.Counter, error) {
		return approxobj.NewCounter(approxobj.WithProcs(2), approxobj.WithShards(4), approxobj.WithAccuracy(approxobj.Multiplicative(4)))
	}
	budget("Multiplicative(4) counter, 2 procs, 4 shards", 35, func() (interface{ Close() }, error) {
		return newMultCounter()
	})
	budget("cached Multiplicative(4) counter, 2 procs, 16 shards", 95, func() (interface{ Close() }, error) {
		return approxobj.NewCounter(approxobj.WithProcs(2), approxobj.WithShards(16), approxobj.WithAccuracy(approxobj.Multiplicative(4)),
			approxobj.WithReadCache(time.Millisecond))
	})
	budget("cached Multiplicative(4) counter, 2 procs, 4 shards, 4 epochs", 132, func() (interface{ Close() }, error) {
		return approxobj.NewCounter(approxobj.WithProcs(2), approxobj.WithShards(4), approxobj.WithAccuracy(approxobj.Multiplicative(4)),
			approxobj.WithReadCache(time.Millisecond), approxobj.WithWindow(2*time.Second, 4))
	})
	budget("cached Multiplicative(4) counter, 2 procs, 16 shards, read through every slot", 132, func() (interface{ Close() }, error) {
		c, err := approxobj.NewCounter(approxobj.WithProcs(2), approxobj.WithShards(16), approxobj.WithAccuracy(approxobj.Multiplicative(4)),
			approxobj.WithReadCache(time.Hour))
		if err != nil {
			return nil, err
		}
		for i := 0; i < c.N(); i++ {
			c.Handle(i).Read()
		}
		return c, nil
	})
	budget("Multiplicative(2) histogram, 2 procs, 4 shards, read through every slot", 46, func() (interface{ Close() }, error) {
		h, err := newHistogram()
		if err != nil {
			return nil, err
		}
		for i := 0; i < h.N(); i++ {
			h.Handle(i).Quantile(0.5)
		}
		return h, nil
	})

	// Algorithm 1 holds no base object until a write: its switches and
	// helping registers are built by test&sets and announcements.
	mc, err := newMultCounter()
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	mc.Handle(0).Read()
	mc.Handle(1).Read()
	if got := mc.BaseObjects(); got != 0 {
		t.Errorf("Multiplicative(4) counter after reads through every slot: %d base objects, want 0", got)
	}

	// A histogram shard holds one bucket row per process slot, and slot i
	// writes only its home shard i mod S, so a row exists only once its
	// slot writes there. An uncached read still reads every register of
	// every row, built or not: Shards × procs × Buckets steps.
	h, err := newHistogram()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	buckets := uint64(h.Buckets())
	slots := []approxobj.HistogramHandle{h.Handle(0), h.Handle(1)}
	baseObjects := func(when string, want uint64) {
		t.Helper()
		if got := h.BaseObjects(); got != want {
			t.Errorf("histogram %s: %d base objects, want %d", when, got, want)
		}
	}
	readAll := func(when string) {
		t.Helper()
		for i, s := range slots {
			before := s.Steps()
			s.Count()
			if got, want := s.Steps()-before, uint64(h.Shards())*2*buckets; got != want {
				t.Errorf("histogram %s: Count through slot %d took %d steps, want %d (Shards × 2 × Buckets)", when, i, got, want)
			}
		}
	}
	baseObjects("when built", 0)
	readAll("when built")
	baseObjects("after reads through every slot", 0)
	slots[0].Observe(5)
	baseObjects("after slot 0's first Observe", buckets)
	readAll("after slot 0's first Observe")
	baseObjects("after slot 0's first Observe and reads through every slot", buckets)
	slots[1].Observe(5) // homed on shard 1
	baseObjects("after slot 1's first Observe", 2*buckets)

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
