package approxobj

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// TestHandlePoolSoak churns Acquire/release on a batched counter from far
// more goroutines than slots. Run with -race it validates that pooled
// handle reuse across goroutines is properly synchronized (handles carry
// non-atomic per-process state — scan positions, batch buffers — that
// successive owners share through the pool's happens-before edge), and
// the final count checks that release flushed every batch buffer: with
// exact accuracy, nothing may be lost.
func TestHandlePoolSoak(t *testing.T) {
	const slots = 4
	const goroutines = 4 * slots
	iters := 300
	if testing.Short() {
		iters = 40
	}
	const perAcquire = 17 // not a multiple of the batch: buffers stay loaded at release
	c, err := NewCounter(WithProcs(slots), WithShards(2), WithBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				h, release := c.Acquire()
				for j := 0; j < perAcquire; j++ {
					h.Inc()
				}
				_ = h.Read()
				release()
				release() // idempotent: a double release must not corrupt the pool
			}
		}()
	}
	wg.Wait()

	want := uint64(goroutines * iters * perAcquire)
	c.Do(func(h CounterHandle) {
		if got := h.Read(); got != want {
			t.Errorf("exact counter lost or duplicated increments through the pool: Read = %d, want %d", got, want)
		}
	})
	if c.StepsRetired() == 0 {
		t.Error("released handles credited no steps")
	}
}

// TestTryAcquireExhaustion checks the non-blocking path: with every slot
// held, TryAcquire reports failure instead of deadlocking, with a nil
// handle interface (no typed-nil handle of the kind's pooled type leaks
// out) and a nil release; releasing one slot makes it succeed again.
func TestTryAcquireExhaustion(t *testing.T) {
	c, err := NewCounter(WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	_, rel1, ok := c.TryAcquire()
	if !ok {
		t.Fatal("TryAcquire failed on a fresh pool")
	}
	_, rel2, ok := c.TryAcquire()
	if !ok {
		t.Fatal("TryAcquire failed with one of two slots held")
	}
	if h, rel, ok := c.TryAcquire(); ok || h != nil || rel != nil {
		t.Fatalf("counter TryAcquire with every slot held = %v, %v, %v; want nil, nil, false", h, rel != nil, ok)
	}
	rel1()
	h, rel3, ok := c.TryAcquire()
	if !ok {
		t.Fatal("TryAcquire failed after a release")
	}
	h.Inc()
	rel3()
	rel2()

	// Every kind, on a one-slot pool: hold the slot, fail, release, lease.
	exhaust := func(kind string, try func() (any, func(), bool)) {
		t.Helper()
		_, rel, ok := try()
		if !ok {
			t.Fatalf("%s TryAcquire failed on a fresh pool", kind)
		}
		if h, rel, ok := try(); ok || h != nil || rel != nil {
			t.Errorf("%s TryAcquire with every slot held = %v, %v, %v; want nil, nil, false", kind, h, rel != nil, ok)
		}
		rel()
		_, rel, ok = try()
		if !ok {
			t.Fatalf("%s TryAcquire failed after a release", kind)
		}
		rel()
	}
	r, err := NewMaxRegister(WithProcs(1))
	if err != nil {
		t.Fatal(err)
	}
	exhaust("max register", func() (any, func(), bool) { return r.TryAcquire() })
	s, err := NewSnapshot(WithProcs(1))
	if err != nil {
		t.Fatal(err)
	}
	exhaust("snapshot", func() (any, func(), bool) { return s.TryAcquire() })
	hist, err := NewHistogram(WithProcs(1), WithAccuracy(Multiplicative(2)))
	if err != nil {
		t.Fatal(err)
	}
	exhaust("histogram", func() (any, func(), bool) { return hist.TryAcquire() })
}

// TestDoBlocksUntilFree pins Do's blocking contract: a Do issued while
// all slots are held completes only after a release.
func TestDoBlocksUntilFree(t *testing.T) {
	c, err := NewCounter(WithProcs(1))
	if err != nil {
		t.Fatal(err)
	}
	_, release := c.Acquire()
	var ran atomic.Bool
	done := make(chan struct{})
	go func() {
		c.Do(func(h CounterHandle) { ran.Store(true) })
		close(done)
	}()
	if ran.Load() {
		t.Fatal("Do ran while the only slot was held")
	}
	release()
	<-done
	if !ran.Load() {
		t.Fatal("Do never ran")
	}
}

// TestMaxRegisterPoolSoak is the max-register counterpart of the pool
// soak: monotone writes through churning pooled handles, final read must
// be the true maximum. The sharded/elided variant relies on release
// flushing each handle's pending elided write — with exact accuracy and
// every handle released, nothing may be stale.
func TestMaxRegisterPoolSoak(t *testing.T) {
	const slots = 3
	const goroutines = 4 * slots
	iters := 500
	if testing.Short() {
		iters = 50
	}
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"plain", []Option{WithProcs(slots)}},
		{"sharded-elided", []Option{WithProcs(slots), WithShards(2), WithBatch(8)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewMaxRegister(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			var next atomic.Uint64
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						v := next.Add(1)
						r.Do(func(h MaxRegisterHandle) { h.Write(v) })
					}
				}()
			}
			wg.Wait()
			want := uint64(goroutines * iters)
			r.Do(func(h MaxRegisterHandle) {
				if got := h.Read(); got != want {
					t.Errorf("exact max register Read = %d, want %d (release must flush elided writes)", got, want)
				}
			})
			if r.StepsRetired() == 0 {
				t.Error("released handles credited no steps")
			}
		})
	}
}

// slotHandleKind drives one object kind through TestSlotHandle, with
// its handles typed as any.
type slotHandleKind struct {
	name string
	// build returns the object's Handle, Acquire and Close.
	build func(opts []Option) (handle func(int) any, acquire func() (any, func()), close func(), err error)
	// round makes round r (1 to 4) of the regression's mutations through
	// h: seven increments, writes 7r-6 to 7r, one component update to r,
	// or seven observations.
	round func(h any, r int)
	// read reads h; after the four rounds it must read want exactly.
	read func(h any) uint64
	want uint64
}

var slotHandleKinds = []slotHandleKind{
	{
		name: "counter",
		build: func(opts []Option) (func(int) any, func() (any, func()), func(), error) {
			c, err := NewCounter(opts...)
			if err != nil {
				return nil, nil, nil, err
			}
			return func(i int) any { return c.Handle(i) }, func() (any, func()) { return c.Acquire() }, c.Close, nil
		},
		round: func(h any, _ int) {
			for range 7 {
				h.(CounterHandle).Inc()
			}
		},
		read: func(h any) uint64 { return h.(CounterHandle).Read() },
		want: 28,
	},
	{
		name: "max-register",
		build: func(opts []Option) (func(int) any, func() (any, func()), func(), error) {
			m, err := NewMaxRegister(opts...)
			if err != nil {
				return nil, nil, nil, err
			}
			return func(i int) any { return m.Handle(i) }, func() (any, func()) { return m.Acquire() }, m.Close, nil
		},
		round: func(h any, r int) {
			for v := 7*r - 6; v <= 7*r; v++ {
				h.(MaxRegisterHandle).Write(uint64(v))
			}
		},
		read: func(h any) uint64 { return h.(MaxRegisterHandle).Read() },
		want: 28,
	},
	{
		name: "snapshot",
		build: func(opts []Option) (func(int) any, func() (any, func()), func(), error) {
			s, err := NewSnapshot(opts...)
			if err != nil {
				return nil, nil, nil, err
			}
			return func(i int) any { return s.Handle(i) }, func() (any, func()) { return s.Acquire() }, s.Close, nil
		},
		round: func(h any, r int) { h.(SnapshotHandle).Update(uint64(r)) },
		read:  func(h any) uint64 { return h.(SnapshotHandle).Scan()[0] },
		want:  4,
	},
	{
		name: "histogram",
		build: func(opts []Option) (func(int) any, func() (any, func()), func(), error) {
			hg, err := NewHistogram(append(opts, WithAccuracy(Multiplicative(2)))...)
			if err != nil {
				return nil, nil, nil, err
			}
			return func(i int) any { return hg.Handle(i) }, func() (any, func()) { return hg.Acquire() }, hg.Close, nil
		},
		round: func(h any, r int) {
			for v := 7*r - 6; v <= 7*r; v++ {
				h.(HistogramHandle).Observe(uint64(v))
			}
		},
		read: func(h any) uint64 { return h.(HistogramHandle).Count() },
		want: 28,
	},
}

// TestSlotHandle pins that each process slot has one handle, for every
// kind, cumulative and windowed: Handle(i) returns the same handle on
// every call, and a lease of slot i gets that handle too. The
// regression half makes four rounds of mutations, each through a fresh
// Handle(0) call, on a batch-8 object, then flushes through Handle(0).
// If Handle(0) built a new handle per call, a counter would read 0 of
// 28 (each round's seven increments stranded in an abandoned buffer)
// and a snapshot component 0 of 4.
func TestSlotHandle(t *testing.T) {
	for _, k := range slotHandleKinds {
		for _, mode := range []struct {
			name string
			opts []Option
		}{
			{"cumulative", nil},
			{"windowed", []Option{WithWindow(time.Hour, 2)}},
		} {
			t.Run(k.name+"/"+mode.name, func(t *testing.T) {
				handle, acquire, closeObj, err := k.build(append([]Option{WithProcs(1)}, mode.opts...))
				if err != nil {
					t.Fatal(err)
				}
				defer closeObj()
				h := handle(0)
				if handle(0) != h {
					t.Error("a second Handle(0) call returned another handle")
				}
				leased, release := acquire()
				if leased != h {
					t.Error("a lease of slot 0 got a handle other than Handle(0)'s")
				}
				release()

				handle, _, closeObj, err = k.build(append([]Option{WithProcs(2), WithBatch(8)}, mode.opts...))
				if err != nil {
					t.Fatal(err)
				}
				defer closeObj()
				for r := 1; r <= 4; r++ {
					k.round(handle(0), r)
				}
				handle(0).(interface{ Flush() }).Flush()
				if got := k.read(handle(0)); got != k.want {
					t.Errorf("read %d after four rounds through Handle(0) and a Flush, want %d", got, k.want)
				}
			})
		}
	}
}

// TestHistSlotHandleFillsCacheLines pins histSlotHandle to whole 64-B
// cache lines, beside the construction footprint pinned in
// alloc_test.go. A reader stores its counts header into the handle on
// every query, and one histogram's slot handles are allocated next to
// each other, so in any size class that is not a multiple of 64 B a
// reader's store shares a line with the next slot's h and bk, which
// every Observe loads. One 8-B field more (72 B, the 80-B class) took
// the query workload's req_p50_ns from ~430 to ~530 ns.
func TestHistSlotHandleFillsCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(histSlotHandle{}); size%64 != 0 {
		t.Errorf("histSlotHandle is %d B, want a multiple of 64 (a slot's handle must not share a cache line with its neighbor's)", size)
	}
}

// testHandle is a minimal pooled handle for driving slotPool directly:
// steps is plain per-slot state that successive owners of the slot share,
// and flushes counts the releases that reached the handle.
type testHandle struct {
	slot    int
	steps   uint64
	flushes int
}

func (h *testHandle) Flush()        { h.flushes++ }
func (h *testHandle) Steps() uint64 { return h.steps }

func newTestPool(slots int) *slotPool[*testHandle] {
	p := new(slotPool[*testHandle])
	p.init(slots, func(slot int) *testHandle { return &testHandle{slot: slot} })
	return p
}

// TestPoolBasic checks the lease path on a small pool: leases get
// distinct slots, an exhausted pool refuses tryAcquire, and a released
// slot is leased again with its cached handle, flushed once and credited
// only the steps taken since its last release.
func TestPoolBasic(t *testing.T) {
	p := newTestPool(3)
	var held [3]*testHandle
	var releases [3]func()
	for range held {
		h, release := p.acquire()
		if h.slot < 0 || h.slot >= 3 || held[h.slot] != nil {
			t.Fatalf("leased invalid or duplicate slot %d", h.slot)
		}
		held[h.slot], releases[h.slot] = h, release
	}
	if _, _, ok := p.tryAcquire(); ok {
		t.Fatal("tryAcquire succeeded on an exhausted pool")
	}
	held[1].steps = 5
	releases[1]()
	h, release, ok := p.tryAcquire()
	if !ok || h != held[1] {
		t.Fatalf("tryAcquire after releasing slot 1 = %v, %v; want slot 1's cached handle", h, ok)
	}
	if h.flushes != 1 || p.retired.Load() != 5 {
		t.Fatalf("release flushed %d times and credited %d steps, want 1 and 5", h.flushes, p.retired.Load())
	}
	h.steps = 7
	release()
	if got := p.retired.Load(); got != 7 {
		t.Fatalf("retired = %d after a second lease took 2 more steps, want 7", got)
	}
	releases[0]()
	releases[2]()
	if len(p.free) != 3 {
		t.Fatalf("%d free slots after releasing all, want 3", len(p.free))
	}
}

// TestPoolPanics pins the ownership check: a slot handed out while it is
// leased leaves its generation even, and the lease panics.
func TestPoolPanics(t *testing.T) {
	p := newTestPool(2)
	h, _ := p.acquire()
	defer func() {
		if recover() == nil {
			t.Errorf("leasing slot %d while it is leased did not panic", h.slot)
		}
	}()
	p.lease(h.slot)
}

// TestPoolDoubleReleaseWhileOtherHeld is the regression test for the
// exclusivity hole of a counting free list: releasing slot A twice while
// slot B is held leaves room on the free list for a duplicate of A. The
// second release, and a stale release called after A was leased again,
// must both be no-ops.
func TestPoolDoubleReleaseWhileOtherHeld(t *testing.T) {
	p := newTestPool(2)
	a, relA := p.acquire()
	b, relB := p.acquire() // keeps the free list non-full across the double release
	relA()
	relA()
	if len(p.free) != 1 {
		t.Fatalf("%d free slots after a double release of slot %d, want 1", len(p.free), a.slot)
	}
	a2, relA2, ok := p.tryAcquire()
	if !ok || a2 != a {
		t.Fatalf("tryAcquire = %v, %v; want slot %d's handle", a2, ok, a.slot)
	}
	relA() // stale: slot A is leased again
	if _, _, ok := p.tryAcquire(); ok {
		t.Fatal("tryAcquire found a third slot in a 2-slot pool")
	}
	if a.flushes != 1 {
		t.Fatalf("slot %d flushed %d times, want 1 (one effective release)", a.slot, a.flushes)
	}
	relA2()
	relB()
	if len(p.free) != 2 || b.flushes != 1 {
		t.Fatalf("%d free slots and %d flushes of slot %d, want 2 and 1", len(p.free), b.flushes, b.slot)
	}
}

// TestPoolHeld pins the ownership word: a slot's lease generation is odd
// while the slot is leased and even once it is released, and a repeated
// release leaves it even.
func TestPoolHeld(t *testing.T) {
	p := newTestPool(3)
	h, release := p.acquire()
	gen := func() uint64 { return p.leases[h.slot].gen.Load() }
	if gen()%2 != 1 {
		t.Errorf("generation %d of slot %d is even while leased", gen(), h.slot)
	}
	release()
	if gen()%2 != 0 {
		t.Errorf("generation %d of slot %d is odd after release", gen(), h.slot)
	}
	release()
	if gen()%2 != 0 {
		t.Errorf("generation %d of slot %d is odd after a repeated release", gen(), h.slot)
	}
}

// TestPoolSoak churns leases from far more goroutines than slots,
// alternating acquire/release and do, and asserts mutual exclusion per
// slot: a per-slot atomic flag is CASed 0->1 on lease and 1->0 before
// release, so any double ownership trips the CAS. Run with -race, the
// plain per-slot step counter on the cached handle also checks the
// happens-before edge between successive owners, and the retired total
// checks that every release credited exactly its own steps.
func TestPoolSoak(t *testing.T) {
	const slots = 4
	const goroutines = 4 * slots
	iters := 20_000
	if testing.Short() {
		iters = 2_000
	}
	p := newTestPool(slots)
	held := make([]atomic.Uint32, slots)
	use := func(h *testHandle) {
		if !held[h.slot].CompareAndSwap(0, 1) {
			t.Errorf("slot %d leased while already held", h.slot)
		}
		h.steps++
		if !held[h.slot].CompareAndSwap(1, 0) {
			t.Errorf("slot %d released while not held", h.slot)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if i%2 == 0 {
					p.do(use)
					continue
				}
				h, release := p.acquire()
				use(h)
				release()
			}
		}()
	}
	wg.Wait()
	if got, want := p.retired.Load(), uint64(goroutines*iters); got != want {
		t.Fatalf("retired steps = %d, want %d", got, want)
	}
	if len(p.free) != slots {
		t.Fatalf("%d free slots after quiescence, want %d", len(p.free), slots)
	}
}

// TestPoolMeterCounts pins the pool's telemetry exactly: every
// successful lease, through Acquire, TryAcquire, Do and the object's own
// Snapshot, counts one approx_runtime_pool_acquires, and a TryAcquire on
// an exhausted pool counts one approx_runtime_pool_tryacquire_failures.
func TestPoolMeterCounts(t *testing.T) {
	tel := NewTelemetry()
	reg := NewRegistry()
	if err := reg.SelfMetrics(tel); err != nil {
		t.Fatal(err)
	}
	c, err := NewCounter(WithProcs(2), WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	meters := func() (acquires, failures uint64) {
		for _, s := range reg.Snapshot() {
			switch s.Name {
			case "approx_runtime_pool_acquires":
				acquires = s.Value
			case "approx_runtime_pool_tryacquire_failures":
				failures = s.Value
			}
		}
		return acquires, failures
	}
	const rounds = 10
	for i := 0; i < rounds; i++ {
		_, release := c.Acquire()
		release()
		c.Do(func(h CounterHandle) { h.Inc() })
		if _, err := c.Snapshot(false); err != nil {
			t.Fatal(err)
		}
	}
	_, rel1, _ := c.TryAcquire()
	_, rel2, _ := c.TryAcquire()
	if _, _, ok := c.TryAcquire(); ok {
		t.Fatal("TryAcquire succeeded with every slot held")
	}
	rel1()
	rel2()
	if acquires, failures := meters(); acquires != 3*rounds+2 || failures != 1 {
		t.Errorf("pool meters = %d acquires, %d failures; want %d and 1", acquires, failures, 3*rounds+2)
	}
}
