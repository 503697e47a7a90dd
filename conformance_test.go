package approxobj

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"approxobj/internal/histogram"
	"approxobj/internal/planetest"
	"approxobj/internal/satmath"
)

// kSqrt returns an accuracy parameter valid for multiplicative counters on
// n slots: at least 2 and at least ceil(sqrt(n)).
func kSqrt(n int) uint64 {
	k := uint64(math.Ceil(math.Sqrt(float64(n))))
	if k < 2 {
		k = 2
	}
	return k
}

// counterSpecs enumerates the counter family: every accuracy crossed with
// sharding and batching.
func counterSpecs(procs int) []struct {
	name string
	opts []Option
} {
	accs := []struct {
		name string
		acc  Accuracy
	}{
		{"exact", Exact()},
		{"additive32", Additive(32)},
		{fmt.Sprintf("mult%d", kSqrt(procs)), Multiplicative(kSqrt(procs))},
	}
	var out []struct {
		name string
		opts []Option
	}
	for _, a := range accs {
		for _, s := range []int{1, 3} {
			for _, b := range []int{1, 8} {
				out = append(out, struct {
					name string
					opts []Option
				}{
					name: fmt.Sprintf("%s-s%d-b%d", a.name, s, b),
					opts: []Option{WithProcs(procs), WithAccuracy(a.acc), WithShards(s), WithBatch(b)},
				})
			}
		}
	}
	return out
}

// TestCounterConformance is the generic envelope property: for EVERY
// counter spec combination, every read observed concurrently must be a
// valid response for some true count inside the regularity window
// (increments completed before the read started .. increments started
// before it returned), per the object's own reported Bounds — and after
// all pooled handles are released (which flushes batch buffers), a
// quiescent read must satisfy the envelope with the Buffer term dropped.
func TestCounterConformance(t *testing.T) {
	const procs = 6
	const incers = procs - 1 // one slot left over for the checking reader
	perG := 3_000
	if testing.Short() {
		perG = 400
	}
	for _, spec := range counterSpecs(procs) {
		t.Run(spec.name, func(t *testing.T) {
			c, err := NewCounter(spec.opts...)
			if err != nil {
				t.Fatal(err)
			}
			bounds := c.Bounds()

			var started, completed atomic.Uint64
			var done atomic.Bool
			var wg sync.WaitGroup
			wg.Add(incers)
			for g := 0; g < incers; g++ {
				go func() {
					defer wg.Done()
					h, release := c.Acquire()
					defer release() // flushes the batch buffer
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
					check := func() bool {
						vmin := completed.Load()
						x := h.Read()
						vmax := started.Load()
						checks++
						if !bounds.ContainsRange(vmin, vmax, x) {
							t.Errorf("read %d outside envelope %+v for any count in [%d, %d]", x, bounds, vmin, vmax)
							return false
						}
						return true
					}
					for !done.Load() {
						if !check() {
							return
						}
					}
					check() // at least one check even if the incrementers win the race
				})
			}()

			wg.Wait()
			done.Store(true)
			readerWG.Wait()
			if checks == 0 {
				t.Fatal("reader performed no checks")
			}

			// All incrementer handles are released, so their buffers are
			// flushed: the envelope holds without the Buffer term.
			flushed := bounds
			flushed.Buffer = 0
			total := uint64(incers * perG)
			c.Do(func(h CounterHandle) {
				if x := h.Read(); !flushed.Contains(total, x) {
					t.Errorf("quiescent read %d outside flushed envelope %+v of true count %d", x, flushed, total)
				}
			})
		})
	}
}

// maxRegSpecs enumerates the max-register family: every accuracy/bound
// member crossed with sharding and write elision — the same shard/batch
// grid as counterSpecs, now that both kinds run on the unified runtime.
func maxRegSpecs(procs int, bound uint64) []struct {
	name string
	opts []Option
} {
	members := []struct {
		name string
		opts []Option
	}{
		{"exact-unbounded", nil},
		{"exact-bounded", []Option{WithBound(bound)}},
		{"mult3-unbounded", []Option{WithAccuracy(Multiplicative(3))}},
		{"mult3-bounded", []Option{WithAccuracy(Multiplicative(3)), WithBound(bound)}},
	}
	var out []struct {
		name string
		opts []Option
	}
	for _, m := range members {
		for _, s := range []int{1, 3} {
			for _, b := range []int{1, 8} {
				opts := append([]Option{WithProcs(procs)}, m.opts...)
				opts = append(opts, WithShards(s), WithBatch(b))
				out = append(out, struct {
					name string
					opts []Option
				}{
					name: fmt.Sprintf("%s-s%d-b%d", m.name, s, b),
					opts: opts,
				})
			}
		}
	}
	return out
}

// TestMaxRegisterConformance is the same property for the max-register
// family: every spec combination's reads stay inside the reported Bounds
// relative to the window [max value whose Write completed before the
// read, max value whose Write started before it returned] — including
// sharded registers (whose envelope must NOT widen with S) and elision
// windows (whose headroom is the Buffer term). After all pooled handles
// are released (which flushes elided writes), a quiescent read must
// satisfy the envelope with the Buffer term dropped.
func TestMaxRegisterConformance(t *testing.T) {
	const procs = 5
	const writers = procs - 1
	perG := 3_000
	if testing.Short() {
		perG = 400
	}
	const bound = uint64(1) << 20
	for _, spec := range maxRegSpecs(procs, bound) {
		t.Run(spec.name, func(t *testing.T) {
			r, err := NewMaxRegister(spec.opts...)
			if err != nil {
				t.Fatal(err)
			}
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
						// Writers interleave distinct ascending sequences so
						// the running maximum keeps moving.
						v := uint64(j*writers + id)
						atomicMax(&startedMax, v)
						h.Write(v)
						atomicMax(&completedMax, v)
						if j%7 == 0 {
							// Non-monotone mix: a write of an already-dominated
							// value must not move the maximum (and is elided
							// for free by the sharded runtime).
							h.Write(v / 2)
						}
					}
				}()
			}

			var checks int
			var readerWG sync.WaitGroup
			readerWG.Add(1)
			go func() {
				defer readerWG.Done()
				r.Do(func(h MaxRegisterHandle) {
					check := func() bool {
						vmin := completedMax.Load()
						x := h.Read()
						vmax := startedMax.Load()
						checks++
						if !bounds.ContainsRange(vmin, vmax, x) {
							t.Errorf("read %d outside envelope %+v for any max in [%d, %d]", x, bounds, vmin, vmax)
							return false
						}
						return true
					}
					for !done.Load() {
						if !check() {
							return
						}
					}
					check() // at least one check even if the writers win the race
				})
			}()

			wg.Wait()
			done.Store(true)
			readerWG.Wait()
			if checks == 0 {
				t.Fatal("reader performed no checks")
			}

			// All writer handles are released, so their elided writes are
			// flushed: the envelope holds without the Buffer term.
			flushed := bounds
			flushed.Buffer = 0
			trueMax := uint64(perG*writers + writers - 1)
			r.Do(func(h MaxRegisterHandle) {
				if x := h.Read(); !flushed.Contains(trueMax, x) {
					t.Errorf("quiescent read %d outside flushed envelope %+v of true max %d", x, flushed, trueMax)
				}
			})
		})
	}
}

// histogramSpecs enumerates the histogram family: exact and
// multiplicative accuracies (bounded and unbounded domains) crossed
// with the same shard/batch grid as the other kinds.
func histogramSpecs(procs int, bound uint64) []struct {
	name string
	opts []Option
} {
	members := []struct {
		name string
		opts []Option
	}{
		{"exact-bounded", []Option{WithBound(bound)}},
		{"mult2-unbounded", []Option{WithAccuracy(Multiplicative(2))}},
		{"mult4-bounded", []Option{WithAccuracy(Multiplicative(4)), WithBound(bound)}},
	}
	var out []struct {
		name string
		opts []Option
	}
	for _, m := range members {
		for _, s := range []int{1, 3} {
			for _, b := range []int{1, 8} {
				opts := append([]Option{WithProcs(procs)}, m.opts...)
				opts = append(opts, WithShards(s), WithBatch(b))
				out = append(out, struct {
					name string
					opts []Option
				}{
					name: fmt.Sprintf("%s-s%d-b%d", m.name, s, b),
					opts: opts,
				})
			}
		}
	}
	return out
}

// TestHistogramConformance is the envelope property for the histogram
// family: for EVERY spec combination (accuracy x shards x batch) under
// both a uniform and a skewed value distribution, concurrent queries
// stay inside coarse envelope sanity bounds (the count within the
// regularity window's Buffer slack), and — the strong check — after all
// pooled handles are released (which flushes observation buffers), every
// query answer at quiescence is verified against an exact reference
// histogram of the full observation multiset, per the object's own
// documented deterministic bounds: counts and ranks exact, quantile and
// sum values within pure bucket rounding (factor k, one-sided).
func TestHistogramConformance(t *testing.T) {
	const procs = 5
	const observers = procs - 1 // one slot left over for the checking reader
	perG := 3_000
	if testing.Short() {
		perG = 400
	}
	const bound = uint64(1) << 12
	for _, spec := range histogramSpecs(procs, bound) {
		for _, dist := range []string{"uniform", "skewed"} {
			t.Run(spec.name+"-"+dist, func(t *testing.T) {
				h, err := NewHistogram(spec.opts...)
				if err != nil {
					t.Fatal(err)
				}
				k := h.K()
				bounds := h.Bounds()
				if bounds.Mult != k || bounds.Add != 0 {
					t.Fatalf("Bounds = %+v, want Mult %d and Add 0", bounds, k)
				}
				// Count lives in the rank domain: exact up to Buffer.
				countBounds := Bounds{Mult: 1, Buffer: bounds.Buffer}

				var started, completed atomic.Uint64
				var done atomic.Bool
				observed := make([][]uint64, observers)
				var wg sync.WaitGroup
				wg.Add(observers)
				for g := 0; g < observers; g++ {
					g := g
					rng := rand.New(rand.NewSource(int64(g)*31 + 7))
					go func() {
						defer wg.Done()
						vals := make([]uint64, 0, perG)
						hh, release := h.Acquire()
						defer release() // flushes the observation buffer
						for j := 0; j < perG; j++ {
							var v uint64
							if dist == "uniform" {
								v = rng.Uint64() % bound
							} else {
								v = uint64(rng.ExpFloat64() * 250)
								if v >= bound {
									v = bound - 1
								}
							}
							started.Add(1)
							hh.Observe(v)
							completed.Add(1)
							vals = append(vals, v)
						}
						observed[g] = vals
					}()
				}

				var checks int
				var readerWG sync.WaitGroup
				readerWG.Add(1)
				go func() {
					defer readerWG.Done()
					h.Do(func(hh HistogramHandle) {
						check := func() bool {
							vmin := completed.Load()
							c := hh.Count()
							vmax := started.Load()
							checks++
							if !countBounds.ContainsRange(vmin, vmax, c) {
								t.Errorf("count %d outside envelope %+v for any total in [%d, %d]", c, countBounds, vmin, vmax)
								return false
							}
							if r := hh.Rank(bound); r > started.Load() {
								t.Errorf("Rank(bound) = %d exceeds observations started %d", r, started.Load())
								return false
							}
							if cdf := hh.CDF(bound / 2); cdf < 0 || cdf > 1 {
								t.Errorf("CDF = %v outside [0, 1]", cdf)
								return false
							}
							return true
						}
						for !done.Load() {
							if !check() {
								return
							}
						}
						check() // at least one check even if the observers win the race
					})
				}()

				wg.Wait()
				done.Store(true)
				readerWG.Wait()
				if checks == 0 {
					t.Fatal("reader performed no checks")
				}

				// All observer handles are released, so their buffers are
				// flushed: verify every query against the exact reference,
				// with only bucket rounding in play.
				var all []uint64
				for _, vals := range observed {
					all = append(all, vals...)
				}
				ref := planetest.NewExactRef(all)
				total := uint64(len(all))
				h.Do(func(hh HistogramHandle) {
					if c := hh.Count(); c != total {
						t.Errorf("quiescent count = %d, want exactly %d", c, total)
					}
					if s := hh.Sum(); s > ref.Sum() || satmath.Mul(s, k) < ref.Sum() {
						t.Errorf("quiescent sum = %d outside [%d/%d, %d]", s, ref.Sum(), k, ref.Sum())
					}
					for _, v := range []uint64{0, 1, 100, bound / 2, bound - 1} {
						r := hh.Rank(v)
						// Exact up to bucket rounding: at least A(v), at most
						// A(k*v) (the bucket top is below k*v).
						lo, hi := ref.Rank(v), ref.Rank(satmath.Mul(v, k))
						if r < lo || r > hi {
							t.Errorf("quiescent Rank(%d) = %d outside [A(v), A(k*v)] = [%d, %d]", v, r, lo, hi)
						}
						if cdf, want := hh.CDF(v), float64(r)/float64(total); cdf != want {
							t.Errorf("quiescent CDF(%d) = %v, want Rank/Count = %v", v, cdf, want)
						}
					}
					for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
						got := hh.Quantile(q)
						y := ref.At(histogram.TargetRank(q, total))
						if got > y {
							t.Errorf("quiescent Quantile(%v) = %d overstates the rank value %d", q, got, y)
						} else if k == 1 && got != y {
							t.Errorf("quiescent exact Quantile(%v) = %d, want %d", q, got, y)
						} else if k > 1 && y > 0 && satmath.Mul(got, k) <= y {
							t.Errorf("quiescent Quantile(%v) = %d understates %d by more than factor %d", q, got, y, k)
						}
					}
				})
			})
		}
	}
}

// snapshotSpecs enumerates the snapshot family: the exact backend
// crossed with the same shard/batch grid as the other kinds.
func snapshotSpecs(procs int) []struct {
	name string
	opts []Option
} {
	var out []struct {
		name string
		opts []Option
	}
	for _, s := range []int{1, 3} {
		for _, b := range []int{1, 8} {
			out = append(out, struct {
				name string
				opts []Option
			}{
				name: fmt.Sprintf("exact-s%d-b%d", s, b),
				opts: []Option{WithProcs(procs), WithShards(s), WithBatch(b)},
			})
		}
	}
	return out
}

// TestSnapshotConformance is the envelope property for the snapshot
// family: for EVERY spec combination, under both monotone and mixed
// (non-monotone) per-component write workloads, every concurrently
// scanned component must be a valid response for some true component
// value inside its regularity window (updates completed before the scan
// started .. updates started before it returned), per the object's own
// reported Bounds — and after all pooled handles are released (which
// flushes elided component updates), a quiescent scan must return every
// component exactly.
func TestSnapshotConformance(t *testing.T) {
	const procs = 5
	const writers = procs - 1 // one slot left over for the checking reader
	perG := 3_000
	if testing.Short() {
		perG = 400
	}
	for _, spec := range snapshotSpecs(procs) {
		for _, mixed := range []bool{false, true} {
			workload := "monotone"
			if mixed {
				workload = "mixed"
			}
			t.Run(spec.name+"-"+workload, func(t *testing.T) {
				s, err := NewSnapshot(spec.opts...)
				if err != nil {
					t.Fatal(err)
				}
				bounds := s.Bounds()

				// Per-component op progress, indexed by component: the
				// single writer of component c stores op j in started[c]
				// before Update and completed[c] after.
				started := make([]atomic.Uint64, procs)
				completed := make([]atomic.Uint64, procs)
				var done atomic.Bool
				var wg sync.WaitGroup
				wg.Add(writers)
				for g := 0; g < writers; g++ {
					go func() {
						defer wg.Done()
						h, release := s.Acquire()
						defer release() // flushes any elided component update
						c := h.Component()
						for j := 1; j <= perG; j++ {
							started[c].Store(uint64(j))
							h.Update(planetest.SeqValue(uint64(j), mixed))
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
						check := func() bool {
							a := make([]uint64, procs)
							for c := range a {
								a[c] = completed[c].Load()
							}
							view := h.Scan()
							if len(view) != procs {
								t.Errorf("scan returned %d components, want %d", len(view), procs)
								return false
							}
							ok := true
							for c := 0; c < procs; c++ {
								if c == reader {
									continue // the reader's own component stays 0
								}
								b := started[c].Load()
								vmin, vmax := planetest.Window(a[c], b, mixed)
								checks++
								if !bounds.ContainsRange(vmin, vmax, view[c]) {
									t.Errorf("component %d read %d outside envelope %+v for any value in [%d, %d]", c, view[c], bounds, vmin, vmax)
									ok = false
								}
							}
							return ok
						}
						for !done.Load() {
							if !check() {
								return
							}
						}
						check() // at least one check even if the writers win the race
					})
				}()

				wg.Wait()
				done.Store(true)
				readerWG.Wait()
				if checks == 0 {
					t.Fatal("reader performed no checks")
				}

				// All writer handles are released, so their elided updates
				// are flushed: the exact backend must report every written
				// component exactly.
				final := planetest.SeqValue(uint64(perG), mixed)
				s.Do(func(h SnapshotHandle) {
					view := h.Scan()
					wrote := 0
					for c, v := range view {
						if v == 0 {
							continue // the reader slots' components were never written
						}
						wrote++
						if v != final {
							t.Errorf("quiescent component %d = %d, want exactly %d", c, v, final)
						}
					}
					if wrote != writers {
						t.Errorf("quiescent scan shows %d written components, want %d", wrote, writers)
					}
				})
			})
		}
	}
}

// TestSelfMetricsConformance is the round-trip contract of the
// self-instrumentation meters (PR 10): SelfMetrics registers them as
// ordinary registry objects, so they must behave like one everywhere —
// appear in Snapshot with self-consistent (Value, Bounds) pairs while
// instrumented objects churn concurrently, refuse the typed getters
// (a meter is not a user counter), survive Close without deadlock, and
// keep the registration idempotent per domain and conflicting across
// domains.
func TestSelfMetricsConformance(t *testing.T) {
	const procs = 4
	reg := NewRegistry()
	tel := NewTelemetry()
	c, err := reg.Counter("work.done",
		WithProcs(procs), WithAccuracy(Multiplicative(3)),
		WithShards(2), WithBatch(8), WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	hg, err := reg.HistogramObject("work.latency",
		WithProcs(procs), WithAccuracy(Multiplicative(2)), WithBound(1<<12),
		WithShards(2), WithBatch(8), WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.SelfMetrics(tel); err != nil {
		t.Fatal(err)
	}

	// A meter name is not a user object: every typed getter must refuse
	// it (the meter spec's zero procs is unreachable from user options),
	// and re-registration must not have disturbed the roster.
	if _, err := reg.Counter("approx_runtime_flushes", WithProcs(1), WithAccuracy(Exact())); err == nil {
		t.Error("Counter(approx_runtime_flushes) succeeded, want spec-conflict error")
	}
	if _, err := reg.MaxRegister("approx_runtime_refresh_ns_peak", WithProcs(1), WithBound(1<<10)); err == nil {
		t.Error("MaxRegister(approx_runtime_refresh_ns_peak) succeeded, want spec-conflict error")
	}

	// Churn while snapshotting: pooled leases (pool-acquire events) and
	// batched increments (flush events) from several goroutines, with
	// concurrent full-registry snapshots reading the meters mid-flight.
	var wg sync.WaitGroup
	var done atomic.Bool
	for g := 0; g < procs-1; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h, release := c.Acquire()
				for j := 0; j < 20; j++ {
					h.Inc()
				}
				release()
				hh, hrelease := hg.Acquire()
				hh.Observe(uint64(i) % (1 << 12))
				hrelease()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			for _, s := range reg.Snapshot() {
				if s.Bounds.Mult == 0 {
					t.Errorf("snapshot %q has zero Mult mid-churn", s.Name)
					return
				}
			}
		}
	}()

	// One guaranteed mid-churn snapshot from this goroutine too, then
	// stop the snapshotter and wait everything out.
	if len(reg.Snapshot()) == 0 {
		t.Fatal("mid-churn Snapshot returned no entries")
	}
	done.Store(true)
	wg.Wait()

	// Quiescent round-trip: every meter appears exactly once, with the
	// advertised envelope shape and sane values.
	snaps := map[string]ObjectSnapshot{}
	for _, s := range reg.Snapshot() {
		if _, dup := snaps[s.Name]; dup {
			t.Fatalf("duplicate snapshot entry %q", s.Name)
		}
		snaps[s.Name] = s
	}
	for _, m := range selfMeters(tel.sink) {
		name := m.name
		s, ok := snaps[name]
		if !ok {
			t.Errorf("meter %q missing from Snapshot", name)
			continue
		}
		if s.Bounds.Mult != 1 {
			t.Errorf("meter %q: Mult = %d, want 1 (meters are exact or buffer-lagged, never multiplicative)", name, s.Bounds.Mult)
		}
		if s.Histogram != nil {
			t.Errorf("meter %q exports histogram detail, want nil", name)
		}
		batched := name == "approx_runtime_buffer_hits" || name == "approx_runtime_elided_writes"
		if batched && s.Bounds.Buffer == 0 {
			t.Errorf("meter %q: Buffer = 0, want the lag bound of the batched accumulators", name)
		}
		if !batched && s.Bounds.Buffer != 0 {
			t.Errorf("meter %q: Buffer = %d, want 0 (exact meter)", name, s.Bounds.Buffer)
		}
	}
	// The churn above must have registered: pooled leases and buffer
	// flushes both ran in the thousands.
	if v := snaps["approx_runtime_pool_acquires"].Value; v == 0 {
		t.Error("approx_runtime_pool_acquires = 0 after pooled churn")
	}
	if v := snaps["approx_runtime_flushes"].Value; v == 0 {
		t.Error("approx_runtime_flushes = 0 after batched churn")
	}
	if v := snaps["approx_runtime_resident_bytes"].Value; v == 0 {
		t.Error("approx_runtime_resident_bytes = 0 with two live instrumented objects")
	}

	// Idempotence and conflicts: same domain is a no-op, a different
	// domain is an error, and a meter name squatted by a user object
	// fails the whole batch atomically.
	if err := reg.SelfMetrics(tel); err != nil {
		t.Errorf("second SelfMetrics(same domain): %v, want nil", err)
	}
	if err := reg.SelfMetrics(NewTelemetry()); err == nil {
		t.Error("SelfMetrics(different domain) succeeded, want conflict error")
	}
	if err := reg.SelfMetrics(nil); err == nil {
		t.Error("SelfMetrics(nil) succeeded, want error")
	}
	squatted := NewRegistry()
	if _, err := squatted.Counter("approx_runtime_flushes", WithProcs(1), WithAccuracy(Exact())); err != nil {
		t.Fatal(err)
	}
	if err := squatted.SelfMetrics(tel); err == nil {
		t.Error("SelfMetrics over a squatted meter name succeeded, want error")
	}
	if got := len(squatted.Names()); got != 1 {
		t.Errorf("failed SelfMetrics left %d entries behind, want 1 (atomic batch)", got)
	}

	// Close must terminate without deadlock (meters are no-op closers;
	// the instrumented objects stop their background resources), and the
	// registry keeps answering with the frozen state.
	regClosed := make(chan struct{})
	go func() {
		reg.Close()
		close(regClosed)
	}()
	select {
	case <-regClosed:
	case <-time.After(10 * time.Second):
		t.Fatal("Registry.Close deadlocked with self-metrics registered")
	}
	after := reg.Snapshot()
	if len(after) != len(snaps) {
		t.Errorf("post-Close Snapshot has %d entries, want %d", len(after), len(snaps))
	}
	reg.Close() // idempotent
}
