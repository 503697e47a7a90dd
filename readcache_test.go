package approxobj

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"approxobj/internal/planetest"
)

// This file is the conformance surface of the read cache
// (WithReadCache): the staleness-widened envelope property for every
// kind x shards x batch combination, convergence to the uncached value
// at quiescence, the never-refreshed-cache-on-empty-object edge case,
// refreshes only on read (no goroutine, no work without a read), and
// the Close lifecycle (idempotent, reads survive, nothing leaks).
//
// The Stale term is time-domain, so the checkers here widen the
// regularity window themselves instead of feeding Stale into
// ContainsRange: the lower end of the window (vmin) is sampled at least
// maxStale BEFORE the read begins. Any cached value served then comes
// from a combined read that started after the sample, so the ordinary
// envelope must hold against [that sample, operations started before
// the read returned].

const testStale = 5 * time.Millisecond

// staleWindowChecks runs fn repeatedly until done flips, each time
// sampling vmin, waiting out the staleness window, and then letting fn
// perform the read and the envelope check. Returns the check count.
func staleWindowChecks(done *atomic.Bool, fn func() bool) int {
	checks := 0
	for {
		last := done.Load()
		if !fn() {
			return checks + 1
		}
		checks++
		if last {
			return checks
		}
	}
}

// TestReadCacheEmptyObjects pins the never-refreshed-cache edge case:
// an object built with WithReadCache must serve the EMPTY value on its
// first read — the inline refresh folds the zero state, it does not
// return garbage or block. This is the "Read() on a zero-observation
// histogram" bug sweep case, applied to every kind.
func TestReadCacheEmptyObjects(t *testing.T) {
	const stale = time.Hour

	c, err := NewCounter(WithProcs(2), WithReadCache(stale))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if b := c.Bounds(); b.Stale != stale {
		t.Errorf("counter Bounds.Stale = %v, want %v", b.Stale, stale)
	} else if b.IsExact() {
		t.Error("cached counter Bounds.IsExact() = true, want false (Stale != 0)")
	}
	c.Do(func(h CounterHandle) {
		if x := h.Read(); x != 0 {
			t.Errorf("never-incremented cached counter Read() = %d, want 0", x)
		}
	})

	r, err := NewMaxRegister(WithProcs(2), WithReadCache(stale))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Do(func(h MaxRegisterHandle) {
		if x := h.Read(); x != 0 {
			t.Errorf("never-written cached max register Read() = %d, want 0", x)
		}
	})

	s, err := NewSnapshot(WithProcs(2), WithReadCache(stale))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Do(func(h SnapshotHandle) {
		for i, v := range h.Scan() {
			if v != 0 {
				t.Errorf("never-updated cached snapshot component %d = %d, want 0", i, v)
			}
		}
	})

	h, err := NewHistogram(WithProcs(2), WithAccuracy(Multiplicative(2)), WithBound(1<<20), WithReadCache(stale))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	h.Do(func(hh HistogramHandle) {
		if got := hh.Count(); got != 0 {
			t.Errorf("zero-observation cached histogram Count() = %d, want 0", got)
		}
		if got := hh.Sum(); got != 0 {
			t.Errorf("zero-observation cached histogram Sum() = %d, want 0", got)
		}
		if got := hh.Quantile(1.0); got != 0 {
			t.Errorf("zero-observation cached histogram Quantile(1.0) = %d, want 0", got)
		}
		if got := hh.Rank(12345); got != 0 {
			t.Errorf("zero-observation cached histogram Rank = %d, want 0", got)
		}
		if got := hh.CDF(12345); got != 0 {
			t.Errorf("zero-observation cached histogram CDF = %v, want 0", got)
		}
	})
}

// TestCachedCounterConformance is TestCounterConformance with
// WithReadCache on every spec combination: cached reads must satisfy
// the ordinary envelope against the staleness-widened regularity
// window, and at quiescence — once the cell has expired and the writers'
// buffers are flushed — the cached read converges to the uncached
// value (envelope with Buffer dropped; exactly, for the exact counter).
func TestCachedCounterConformance(t *testing.T) {
	const procs = 6
	const incers = procs - 1
	perG := 1_500
	if testing.Short() {
		perG = 300
	}
	for _, spec := range counterSpecs(procs) {
		t.Run(spec.name, func(t *testing.T) {
			c, err := NewCounter(append(spec.opts, WithReadCache(testStale))...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			bounds := c.Bounds()
			if bounds.Stale != testStale {
				t.Fatalf("Bounds.Stale = %v, want %v", bounds.Stale, testStale)
			}

			var started, completed atomic.Uint64
			var done atomic.Bool
			var wg sync.WaitGroup
			wg.Add(incers)
			for g := 0; g < incers; g++ {
				go func() {
					defer wg.Done()
					h, release := c.Acquire()
					defer release()
					for j := 0; j < perG; j++ {
						started.Add(1)
						h.Inc()
						completed.Add(1)
					}
				}()
			}

			var checks int
			var readerWG sync.WaitGroup
			readerWG.Add(1)
			go func() {
				defer readerWG.Done()
				c.Do(func(h CounterHandle) {
					checks = staleWindowChecks(&done, func() bool {
						vmin := completed.Load()
						time.Sleep(testStale) // any cell served below is newer than vmin
						x := h.Read()
						vmax := started.Load()
						if !bounds.ContainsRange(vmin, vmax, x) {
							t.Errorf("cached read %d outside envelope %+v for any count in [%d, %d]", x, bounds, vmin, vmax)
							return false
						}
						return true
					})
				})
			}()

			wg.Wait()
			done.Store(true)
			readerWG.Wait()
			if checks == 0 {
				t.Fatal("reader performed no checks")
			}

			// Quiescence: handles released (buffers flushed), cell expired —
			// the next cached read refreshes inline over the flushed state.
			time.Sleep(2 * testStale)
			flushed := bounds
			flushed.Buffer = 0
			total := uint64(incers * perG)
			c.Do(func(h CounterHandle) {
				x := h.Read()
				if !flushed.Contains(total, x) {
					t.Errorf("quiescent cached read %d outside flushed envelope %+v of true count %d", x, flushed, total)
				}
				if flushed.Mult <= 1 && flushed.Add == 0 && x != total {
					t.Errorf("quiescent cached exact read %d did not converge to %d", x, total)
				}
			})
		})
	}
}

// TestCachedMaxRegisterConformance is the same property for the
// max-register family under WithReadCache.
func TestCachedMaxRegisterConformance(t *testing.T) {
	const procs = 5
	const writers = procs - 1
	perG := 1_500
	if testing.Short() {
		perG = 300
	}
	const bound = uint64(1) << 20
	for _, spec := range maxRegSpecs(procs, bound) {
		t.Run(spec.name, func(t *testing.T) {
			r, err := NewMaxRegister(append(spec.opts, WithReadCache(testStale))...)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			bounds := r.Bounds()

			atomicMax := func(a *atomic.Uint64, v uint64) {
				for {
					cur := a.Load()
					if v <= cur || a.CompareAndSwap(cur, v) {
						return
					}
				}
			}
			var startedMax, completedMax atomic.Uint64
			var done atomic.Bool
			var wg sync.WaitGroup
			wg.Add(writers)
			for g := 0; g < writers; g++ {
				id := g
				go func() {
					defer wg.Done()
					h, release := r.Acquire()
					defer release()
					for j := 1; j <= perG; j++ {
						v := uint64(j*writers + id)
						atomicMax(&startedMax, v)
						h.Write(v)
						atomicMax(&completedMax, v)
					}
				}()
			}

			var checks int
			var readerWG sync.WaitGroup
			readerWG.Add(1)
			go func() {
				defer readerWG.Done()
				r.Do(func(h MaxRegisterHandle) {
					checks = staleWindowChecks(&done, func() bool {
						vmin := completedMax.Load()
						time.Sleep(testStale)
						x := h.Read()
						vmax := startedMax.Load()
						if !bounds.ContainsRange(vmin, vmax, x) {
							t.Errorf("cached read %d outside envelope %+v for any max in [%d, %d]", x, bounds, vmin, vmax)
							return false
						}
						return true
					})
				})
			}()

			wg.Wait()
			done.Store(true)
			readerWG.Wait()
			if checks == 0 {
				t.Fatal("reader performed no checks")
			}

			time.Sleep(2 * testStale)
			flushed := bounds
			flushed.Buffer = 0
			trueMax := uint64(perG*writers + writers - 1)
			r.Do(func(h MaxRegisterHandle) {
				if x := h.Read(); !flushed.Contains(trueMax, x) {
					t.Errorf("quiescent cached read %d outside flushed envelope %+v of true max %d", x, flushed, trueMax)
				}
			})
		})
	}
}

// TestCachedSnapshotConformance is the same property for the snapshot
// family under WithReadCache, per component and monotone workload.
func TestCachedSnapshotConformance(t *testing.T) {
	const procs = 5
	const writers = procs - 1
	perG := 1_500
	if testing.Short() {
		perG = 300
	}
	for _, spec := range snapshotSpecs(procs) {
		t.Run(spec.name, func(t *testing.T) {
			s, err := NewSnapshot(append(spec.opts, WithReadCache(testStale))...)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			bounds := s.Bounds()

			started := make([]atomic.Uint64, procs)
			completed := make([]atomic.Uint64, procs)
			var done atomic.Bool
			var wg sync.WaitGroup
			wg.Add(writers)
			for g := 0; g < writers; g++ {
				go func() {
					defer wg.Done()
					h, release := s.Acquire()
					defer release()
					c := h.Component()
					for j := 1; j <= perG; j++ {
						started[c].Store(uint64(j))
						h.Update(planetest.SeqValue(uint64(j), false))
						completed[c].Store(uint64(j))
					}
				}()
			}

			var checks int
			var readerWG sync.WaitGroup
			readerWG.Add(1)
			go func() {
				defer readerWG.Done()
				s.Do(func(h SnapshotHandle) {
					reader := h.Component()
					checks = staleWindowChecks(&done, func() bool {
						a := make([]uint64, procs)
						for c := range a {
							a[c] = completed[c].Load()
						}
						time.Sleep(testStale)
						view := h.Scan()
						ok := true
						for c := 0; c < procs; c++ {
							if c == reader {
								continue
							}
							b := started[c].Load()
							vmin, vmax := planetest.Window(a[c], b, false)
							if !bounds.ContainsRange(vmin, vmax, view[c]) {
								t.Errorf("cached component %d read %d outside envelope %+v for any value in [%d, %d]", c, view[c], bounds, vmin, vmax)
								ok = false
							}
						}
						return ok
					})
				})
			}()

			wg.Wait()
			done.Store(true)
			readerWG.Wait()
			if checks == 0 {
				t.Fatal("reader performed no checks")
			}

			time.Sleep(2 * testStale)
			final := planetest.SeqValue(uint64(perG), false)
			s.Do(func(h SnapshotHandle) {
				wrote := 0
				for c, v := range h.Scan() {
					if v == 0 {
						continue
					}
					wrote++
					if v != final {
						t.Errorf("quiescent cached component %d = %d, want exactly %d", c, v, final)
					}
				}
				if wrote != writers {
					t.Errorf("quiescent cached scan shows %d written components, want %d", wrote, writers)
				}
			})
		})
	}
}

// TestCachedHistogramConformance is the same property for the histogram
// family under WithReadCache: every query folds the cached bucket cell,
// so Count is the conformance scalar (rank domain, staleness-widened
// window) and the quiescent checks assert exact convergence of the
// whole query engine to the flushed state.
func TestCachedHistogramConformance(t *testing.T) {
	const procs = 5
	const observers = procs - 1
	perG := 1_500
	if testing.Short() {
		perG = 300
	}
	const bound = uint64(1) << 12
	for _, spec := range histogramSpecs(procs, bound) {
		t.Run(spec.name, func(t *testing.T) {
			h, err := NewHistogram(append(spec.opts, WithReadCache(testStale))...)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			bounds := h.Bounds()
			countBounds := Bounds{Mult: 1, Buffer: bounds.Buffer}

			var started, completed atomic.Uint64
			var done atomic.Bool
			var wg sync.WaitGroup
			wg.Add(observers)
			for g := 0; g < observers; g++ {
				g := g
				go func() {
					defer wg.Done()
					hh, release := h.Acquire()
					defer release()
					for j := 0; j < perG; j++ {
						started.Add(1)
						hh.Observe(uint64(g*perG+j) % bound)
						completed.Add(1)
					}
				}()
			}

			var checks int
			var readerWG sync.WaitGroup
			readerWG.Add(1)
			go func() {
				defer readerWG.Done()
				h.Do(func(hh HistogramHandle) {
					checks = staleWindowChecks(&done, func() bool {
						vmin := completed.Load()
						time.Sleep(testStale)
						c := hh.Count()
						vmax := started.Load()
						if !countBounds.ContainsRange(vmin, vmax, c) {
							t.Errorf("cached count %d outside envelope %+v for any total in [%d, %d]", c, countBounds, vmin, vmax)
							return false
						}
						if r := hh.Rank(bound); r > started.Load() {
							t.Errorf("cached Rank(bound) = %d exceeds observations started %d", r, started.Load())
							return false
						}
						return true
					})
				})
			}()

			wg.Wait()
			done.Store(true)
			readerWG.Wait()
			if checks == 0 {
				t.Fatal("reader performed no checks")
			}

			time.Sleep(2 * testStale)
			total := uint64(observers * perG)
			h.Do(func(hh HistogramHandle) {
				if c := hh.Count(); c != total {
					t.Errorf("quiescent cached count = %d, want exactly %d", c, total)
				}
				if cdf := hh.CDF(bound); cdf != 1 {
					t.Errorf("quiescent cached CDF(bound) = %v, want 1", cdf)
				}
			})
		})
	}
}

// TestReadCacheCloseLifecycle is the goroutine-leak soak of Close on
// cached objects: churning cached objects of every kind — including
// registry-owned and windowed ones — and closing them must return the
// goroutine count to its baseline, Close must be idempotent, and cached
// reads must keep working after Close (inline refresh).
func TestReadCacheCloseLifecycle(t *testing.T) {
	rounds := 5
	if testing.Short() {
		rounds = 2
	}
	// Let unrelated goroutines (test runner warmup) settle first.
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	for round := 0; round < rounds; round++ {
		const stale = 500 * time.Microsecond // cells lapse between the reads below

		c, err := NewCounter(WithProcs(2), WithAccuracy(Multiplicative(2)), WithShards(2), WithReadCache(stale))
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewMaxRegister(WithProcs(2), WithBound(1<<16), WithReadCache(stale))
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSnapshot(WithProcs(2), WithBatch(4), WithReadCache(stale))
		if err != nil {
			t.Fatal(err)
		}
		hg, err := NewHistogram(WithProcs(2), WithAccuracy(Multiplicative(2)), WithBound(1<<16), WithReadCache(stale))
		if err != nil {
			t.Fatal(err)
		}
		reg := NewRegistry()
		rc, err := reg.Counter("hits", WithProcs(2), WithWindow(time.Hour, 4), WithReadCache(stale))
		if err != nil {
			t.Fatal(err)
		}

		c.Do(func(h CounterHandle) { h.Inc(); h.Read() })
		r.Do(func(h MaxRegisterHandle) { h.Write(42); h.Read() })
		s.Do(func(h SnapshotHandle) { h.Update(7); h.Scan() })
		hg.Do(func(h HistogramHandle) { h.Observe(9); h.Count() })
		rc.Do(func(h CounterHandle) { h.Inc() })
		reg.Snapshot()
		time.Sleep(2 * stale) // let the cells lapse: the reads below refresh inline

		c.Close()
		c.Close() // idempotent
		r.Close()
		s.Close()
		hg.Close()
		reg.Close()
		reg.Close() // idempotent

		// Reads still work after Close: the cache refreshes inline.
		c.Do(func(h CounterHandle) {
			if x := h.Read(); x == 0 {
				t.Error("post-Close cached read lost the increment")
			}
		})
		if got := reg.Snapshot(); len(got) != 1 || got[0].Value == 0 {
			t.Errorf("post-Close registry snapshot = %+v, want the surviving increment", got)
		}
	}

	// The windowed counters' rotators are closed (Close blocks on the
	// goroutine's exit), so the count must settle back; allow slack for
	// runtime helpers.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// cacheKindView is one object as the read-cache lifecycle tests below
// drive it: handle calls Handle(i), write is one flushed mutation
// through Handle(i), and read is the value through Handle(i) — a
// snapshot's largest component, a histogram's count — so a written
// object reads nonzero.
type cacheKindView struct {
	obj interface {
		N() int
		Bounds() Bounds
		Reset() error
		Close()
	}
	handle func(i int)
	write  func(i int)
	read   func(i int) uint64
}

// cacheKinds builds each kind from opts (plus the kind's own options),
// standalone when reg is nil and registered in reg otherwise. buffer is
// the Buffer term WithProcs(3) and WithBatch(4) give the kind over its
// caller slots: (B-1)·N where the headroom scales with the slot count,
// B-1 where it does not.
var cacheKinds = []struct {
	name   string
	buffer uint64
	build  func(reg *Registry, opts ...Option) (cacheKindView, error)
}{
	{"counter", 9, func(reg *Registry, opts ...Option) (cacheKindView, error) {
		var c *Counter
		var err error
		if reg != nil {
			c, err = reg.Counter("counter", opts...)
		} else {
			c, err = NewCounter(opts...)
		}
		return cacheKindView{c,
			func(i int) { c.Handle(i) },
			func(i int) { h := c.Handle(i).(BatchedCounterHandle); h.Inc(); h.Flush() },
			func(i int) uint64 { return c.Handle(i).Read() }}, err
	}},
	{"max register", 3, func(reg *Registry, opts ...Option) (cacheKindView, error) {
		var r *MaxRegister
		var err error
		if reg != nil {
			r, err = reg.MaxRegister("max", opts...)
		} else {
			r, err = NewMaxRegister(opts...)
		}
		return cacheKindView{r,
			func(i int) { r.Handle(i) },
			func(i int) { h := r.Handle(i).(BatchedMaxRegisterHandle); h.Write(7); h.Flush() },
			func(i int) uint64 { return r.Handle(i).Read() }}, err
	}},
	{"snapshot", 3, func(reg *Registry, opts ...Option) (cacheKindView, error) {
		var s *Snapshot
		var err error
		if reg != nil {
			s, err = reg.SnapshotObject("snapshot", opts...)
		} else {
			s, err = NewSnapshot(opts...)
		}
		return cacheKindView{s,
			func(i int) { s.Handle(i) },
			func(i int) { h := s.Handle(i).(BatchedSnapshotHandle); h.Update(7); h.Flush() },
			func(i int) uint64 { return slices.Max(s.Handle(i).Scan()) }}, err
	}},
	{"histogram", 9, func(reg *Registry, opts ...Option) (cacheKindView, error) {
		opts = append(opts, WithAccuracy(Multiplicative(2)))
		var hg *Histogram
		var err error
		if reg != nil {
			hg, err = reg.HistogramObject("histogram", opts...)
		} else {
			hg, err = NewHistogram(opts...)
		}
		return cacheKindView{hg,
			func(i int) { hg.Handle(i) },
			func(i int) { h := hg.Handle(i).(BatchedHistogramHandle); h.Observe(7); h.Flush() },
			func(i int) uint64 { return hg.Handle(i).Count() }}, err
	}},
}

// TestReadCacheInternalSlotsHidden pins that the internal slots — the
// registry's snapshot slot and the read cache's refresh slot — stay
// invisible to callers, on every kind, cumulative and windowed, plain
// and registry-owned: Handle refuses them like any slot out of range,
// and they never count in a Buffer term that scales with the slot
// count, since they only ever read.
func TestReadCacheInternalSlotsHidden(t *testing.T) {
	for _, k := range cacheKinds {
		for _, windowed := range []bool{false, true} {
			for _, registered := range []bool{false, true} {
				name := k.name + "/cumulative"
				opts := []Option{WithProcs(3), WithBatch(4), WithReadCache(time.Hour)}
				if windowed {
					name = k.name + "/windowed"
					opts = append(opts, WithWindow(time.Hour, 4))
				}
				var reg *Registry
				if registered {
					name += "/registry"
					reg = NewRegistry()
				} else {
					name += "/plain"
				}
				t.Run(name, func(t *testing.T) {
					v, err := k.build(reg, opts...)
					if err != nil {
						t.Fatal(err)
					}
					defer v.obj.Close()
					n := v.obj.N()
					for _, i := range []int{-1, n, n + 1} {
						func() {
							defer func() {
								if msg := fmt.Sprint(recover()); !strings.Contains(msg, "handle slot out of range") {
									t.Errorf("Handle(%d) with N = %d: panic %q, want \"handle slot out of range\"", i, n, msg)
								}
							}()
							v.handle(i)
						}()
					}
					if got := v.obj.Bounds().Buffer; got != k.buffer {
						t.Errorf("Bounds().Buffer = %d, want %d (over the %d caller slots only)", got, k.buffer, n)
					}
				})
			}
		}
	}
}

// TestReadCacheStartsNoGoroutine pins the goroutine cost of a cached
// object: none of its own. Cumulative cached objects add no goroutine,
// windowed cached objects add one each, their epoch rotator, whatever
// the epoch count, and none is left after Close.
func TestReadCacheStartsNoGoroutine(t *testing.T) {
	const objects, epochs = 8, 4
	for _, k := range cacheKinds {
		t.Run(k.name, func(t *testing.T) {
			// Goroutines that earlier tests stopped may still be exiting:
			// count from a settled baseline.
			before := goroutines()
			for {
				time.Sleep(5 * time.Millisecond)
				n := goroutines()
				if n == before {
					break
				}
				before = n
			}
			var views []cacheKindView
			for _, windowed := range []bool{false, true} {
				opts := []Option{WithProcs(2), WithReadCache(time.Microsecond)}
				want := 0
				if windowed {
					opts = append(opts, WithWindow(time.Hour, epochs))
					want = objects
				}
				start := goroutines()
				for j := 0; j < objects; j++ {
					v, err := k.build(nil, opts...)
					if err != nil {
						t.Fatal(err)
					}
					v.write(0)
					v.read(1)
					views = append(views, v)
				}
				if got := goroutines() - start; got != want {
					t.Errorf("%d cached objects (windowed %v, %d epochs) added %d goroutines, want %d (one rotator per windowed object)", objects, windowed, epochs, got, want)
				}
			}
			for _, v := range views {
				v.obj.Close()
			}
			deadline := time.Now().Add(2 * time.Second)
			for goroutines() > before {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: %d before, %d after Close", before, goroutines())
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestReadCacheRefreshesOnlyOnRead pins that a cached object does no
// work without a read: with a staleness of 1 µs the cell lapses at
// once, yet while nobody reads, nothing refreshes it. Each refresh
// fires one TraceRefresh through an unsampled trace hook; after one
// read and 20 ms without reads the count must not have moved, and one
// more read must add exactly one refresh.
func TestReadCacheRefreshesOnlyOnRead(t *testing.T) {
	for _, k := range cacheKinds {
		for _, windowed := range []bool{false, true} {
			name := k.name + "/cumulative"
			if windowed {
				name = k.name + "/windowed"
			}
			t.Run(name, func(t *testing.T) {
				var refreshes atomic.Int64
				tel := NewTelemetry(WithTraceHook(func(ev TraceEvent, _ int, _ uint64) {
					if ev == TraceRefresh {
						refreshes.Add(1)
					}
				}, 0))
				opts := []Option{WithProcs(2), WithReadCache(time.Microsecond), WithTelemetry(tel)}
				if windowed {
					opts = append(opts, WithWindow(time.Hour, 4))
				}
				v, err := k.build(nil, opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer v.obj.Close()
				v.read(1)
				idle := refreshes.Load()
				time.Sleep(20 * time.Millisecond)
				if got := refreshes.Load() - idle; got != 0 {
					t.Fatalf("%d refreshes in 20 ms without a read, want 0", got)
				}
				v.read(1)
				if got := refreshes.Load() - idle; got != 1 {
					t.Errorf("one read of a stale cell made %d refreshes, want 1", got)
				}
			})
		}
	}
}

// TestReadCacheResetInvalidates pins that Reset empties a windowed
// object's cell: with an hour of staleness the cell filled by a read
// before Reset is still fresh afterwards, so only the invalidation keeps
// the first read after Reset from serving pre-Reset mutations (and two
// Snapshot(true) calls from reporting one interval twice).
func TestReadCacheResetInvalidates(t *testing.T) {
	for _, k := range cacheKinds {
		t.Run(k.name, func(t *testing.T) {
			v, err := k.build(nil, WithProcs(2), WithWindow(time.Hour, 4), WithReadCache(time.Hour))
			if err != nil {
				t.Fatal(err)
			}
			defer v.obj.Close()
			v.write(0)
			if got := v.read(1); got == 0 {
				t.Fatal("the first cached read missed a flushed write")
			}
			if err := v.obj.Reset(); err != nil {
				t.Fatal(err)
			}
			if got := v.read(1); got != 0 {
				t.Fatalf("first read after Reset = %d, want 0 (served the pre-Reset cell)", got)
			}
		})
	}
}

// TestReadCacheRotationRacingBatchedWrites is the "never lost" check
// through the read cache, run under -race in CI: a writer with batched
// increments races hand-driven rotations and a cached reader, whose
// refreshes fold the ring through the refresh slot's handle, which
// re-homes after each rotation. At most epochs-1 rotations fire, so every write
// stays in the live ring. After quiescence, a flush, and a wait of
// Stale (so no cell combined before the flush is fresh), the read must
// equal the write count exactly (exact backend).
func TestReadCacheRotationRacingBatchedWrites(t *testing.T) {
	const (
		epochs = 8
		incs   = 20_000
	)
	c, err := NewCounter(WithProcs(2), WithBatch(16), WithWindow(time.Hour, epochs), WithReadCache(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ring := epochRing(t, c.rt)
	w, r := c.Handle(0).(BatchedCounterHandle), c.Handle(1)

	var wg sync.WaitGroup
	start := make(chan struct{})
	wg.Add(2)
	go func() { // writer: batched increments racing rotation
		defer wg.Done()
		<-start
		for i := 0; i < incs; i++ {
			w.Inc()
		}
	}()
	go func() { // rotator: at most epochs-1 rotations, so no write-bearing epoch is evicted
		defer wg.Done()
		<-start
		for i := 0; i < epochs-1; i++ {
			ring.Rotate()
			time.Sleep(time.Millisecond)
		}
	}()
	stopRead, readDone := make(chan struct{}), make(chan struct{})
	go func() { // reader: cached reads racing both
		defer close(readDone)
		<-start
		for {
			select {
			case <-stopRead:
				return
			default:
			}
			if got := r.Read(); got > incs {
				t.Errorf("mid-race read %d exceeds total writes %d", got, incs)
				return
			}
		}
	}()

	close(start)
	wg.Wait()
	close(stopRead)
	<-readDone

	w.Flush()
	time.Sleep(c.Bounds().Stale)
	if got := r.Read(); got != incs {
		t.Fatalf("quiescent cached windowed read = %d, want exactly %d (writes lost or duplicated)", got, incs)
	}
}

// TestReadCacheSharedRefreshHandle is the race check of the one refresh
// handle, run under -race in CI: several goroutines read through
// distinct caller slots of a cached counter and a cached histogram,
// cumulative and windowed, while a writer slot writes and, when
// windowed, the ring rotates by hand, for at least 2 ms. With a
// staleness of tens of µs the cell lapses dozens of times in that span,
// and the readers refresh it inline (a 2-vCPU probe counted ~46 inline
// refreshes in ~30k cached reads). Every refresh runs through the
// reserved refresh slot's runtime read under the refresh lock, so the
// readers' handles take no step. After quiescence, a flush and a wait of Stale, a read
// must equal the write count (exact backends; rotations stay below the
// epoch count, so no write leaves the ring).
func TestReadCacheSharedRefreshHandle(t *testing.T) {
	const (
		readers = 3
		race    = 2 * time.Millisecond
		epochs  = 4
		stale   = 40 * time.Microsecond
	)
	type view struct {
		obj   interface{ Close() }
		rt    shardRuntime
		write func()
		flush func()
		read  func(i int) uint64 // through caller slot i
		steps func(i int) uint64
	}
	for _, k := range []struct {
		name  string
		build func(opts []Option) (view, error)
	}{
		{"counter", func(opts []Option) (view, error) {
			c, err := NewCounter(opts...)
			if err != nil {
				return view{}, err
			}
			w := c.Handle(0).(BatchedCounterHandle)
			return view{c, c.rt, w.Inc, w.Flush,
				func(i int) uint64 { return c.Handle(i).Read() },
				func(i int) uint64 { return c.Handle(i).Steps() }}, nil
		}},
		{"histogram", func(opts []Option) (view, error) {
			h, err := NewHistogram(append(opts, WithAccuracy(Multiplicative(2)))...)
			if err != nil {
				return view{}, err
			}
			w, n := h.Handle(0).(BatchedHistogramHandle), uint64(0)
			return view{h, h.rt, func() { n++; w.Observe(n % 1000) }, w.Flush,
				func(i int) uint64 { return h.Handle(i).Count() },
				func(i int) uint64 { return h.Handle(i).Steps() }}, nil
		}},
	} {
		for _, windowed := range []bool{false, true} {
			opts := []Option{WithProcs(1 + readers), WithBatch(4), WithReadCache(stale)}
			name := k.name + "/cumulative"
			if windowed {
				opts = append(opts, WithWindow(time.Hour, epochs))
				name = k.name + "/windowed"
			}
			t.Run(name, func(t *testing.T) {
				v, err := k.build(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer v.obj.Close()
				for i := 1; i <= readers; i++ {
					v.read(i) // bind the slot before the race
				}
				var wg sync.WaitGroup
				var done atomic.Bool
				var wrote atomic.Uint64 // writes returned; one more may be in flight
				start := make(chan struct{})
				for i := 1; i <= readers; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						for !done.Load() {
							if got, limit := v.read(i), wrote.Load()+1; got > limit {
								t.Errorf("slot %d read %d mid-race, above the %d writes invoked", i, got, limit)
								return
							}
						}
					}()
				}
				if windowed {
					ring := epochRing(t, v.rt)
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						for j := 0; j < epochs-1; j++ {
							time.Sleep(200 * time.Microsecond)
							ring.Rotate()
						}
					}()
				}
				close(start)
				for t0 := time.Now(); time.Since(t0) < race; {
					v.write()
					wrote.Add(1)
				}
				done.Store(true)
				wg.Wait()
				writes := wrote.Load()

				for i := 1; i <= readers; i++ {
					if s := v.steps(i); s != 0 {
						t.Errorf("caller slot %d took %d steps, want 0 (refreshes are the refresh slot's steps)", i, s)
					}
				}
				v.flush()
				time.Sleep(stale)
				if got := v.read(1); got != writes {
					t.Errorf("quiescent cached read = %d, want exactly %d", got, writes)
				}
			})
		}
	}
}
