package approxobj

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"approxobj/internal/histogram"
	"approxobj/internal/planetest"
	"approxobj/internal/satmath"
)

// observePhase drives the observer goroutines of one window phase:
// every observer acquires a pooled handle, records perG values from its
// own seeded stream, and releases (flushing its observation buffer).
// It returns the phase's full observation multiset.
func observePhase(t *testing.T, h *Histogram, observers, perG int, bound uint64, seed int64) []uint64 {
	t.Helper()
	observed := make([][]uint64, observers)
	var wg sync.WaitGroup
	wg.Add(observers)
	for g := 0; g < observers; g++ {
		g := g
		rng := rand.New(rand.NewSource(seed*1031 + int64(g)))
		go func() {
			defer wg.Done()
			vals := make([]uint64, 0, perG)
			hh, release := h.Acquire()
			defer release() // flushes the observation buffer
			for j := 0; j < perG; j++ {
				v := rng.Uint64() % bound
				hh.Observe(v)
				vals = append(vals, v)
			}
			observed[g] = vals
		}()
	}
	wg.Wait()
	var all []uint64
	for _, vals := range observed {
		all = append(all, vals...)
	}
	return all
}

// checkHistWindow verifies every query of a quiescent windowed
// histogram against an exact reference of the observations that are
// still live in the window: counts and ranks exact, quantile and sum
// within pure bucket rounding (factor k, one-sided) — the same
// deterministic envelope the cumulative conformance test pins, now
// applied per window content.
func checkHistWindow(t *testing.T, h *Histogram, live []uint64, bound uint64) {
	t.Helper()
	k := h.K()
	ref := planetest.NewExactRef(live)
	total := uint64(len(live))
	h.Do(func(hh HistogramHandle) {
		if c := hh.Count(); c != total {
			t.Errorf("windowed count = %d, want exactly %d live observations", c, total)
		}
		if s := hh.Sum(); s > ref.Sum() || satmath.Mul(s, k) < ref.Sum() {
			t.Errorf("windowed sum = %d outside [%d/%d, %d]", s, ref.Sum(), k, ref.Sum())
		}
		for _, v := range []uint64{0, 1, 100, bound / 2, bound - 1} {
			r := hh.Rank(v)
			lo, hi := ref.Rank(v), ref.Rank(satmath.Mul(v, k))
			if r < lo || r > hi {
				t.Errorf("windowed Rank(%d) = %d outside [A(v), A(k*v)] = [%d, %d]", v, r, lo, hi)
			}
			if total > 0 {
				if cdf, want := hh.CDF(v), float64(r)/float64(total); cdf != want {
					t.Errorf("windowed CDF(%d) = %v, want Rank/Count = %v", v, cdf, want)
				}
			}
		}
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			got := hh.Quantile(q)
			if total == 0 {
				if got != 0 {
					t.Errorf("empty-window Quantile(%v) = %d, want 0", q, got)
				}
				continue
			}
			y := ref.At(histogram.TargetRank(q, total))
			if got > y {
				t.Errorf("windowed Quantile(%v) = %d overstates the rank value %d", q, got, y)
			} else if k == 1 && got != y {
				t.Errorf("windowed exact Quantile(%v) = %d, want %d", q, got, y)
			} else if k > 1 && y > 0 && satmath.Mul(got, k) <= y {
				t.Errorf("windowed Quantile(%v) = %d understates %d by more than factor %d", q, got, y, k)
			}
		}
	})
}

// TestWindowedHistogramConformance is the windowed envelope property:
// for EVERY histogram spec combination (accuracy x shards x batch),
// queries on a windowed histogram answer over exactly the live window —
// verified against an exact reference of the observation multiset that
// rotation has not yet evicted, phase by phase. The window duration is
// an hour so the only rotations are the test's own deterministic
// Rotate calls on the epoch ring: observations written before r rotations are live
// iff r < epochs, expired otherwise; Reset evicts everything at once
// and the object keeps working.
func TestWindowedHistogramConformance(t *testing.T) {
	const procs = 5
	const observers = procs - 1
	const epochs = 4
	perG := 2_000
	if testing.Short() {
		perG = 300
	}
	const bound = uint64(1) << 12
	for _, spec := range histogramSpecs(procs, bound) {
		t.Run(spec.name, func(t *testing.T) {
			opts := append(append([]Option{}, spec.opts...), WithWindow(time.Hour, epochs))
			h, err := NewHistogram(opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			ring := epochRing(t, h.rt)
			if b := h.Bounds(); b.Window != time.Hour/epochs {
				t.Fatalf("Bounds.Window = %v, want %v (d/n)", b.Window, time.Hour/epochs)
			}

			// Phase A, then one rotation, then phase B: both phases are
			// live (A has survived 1 < epochs rotations).
			phaseA := observePhase(t, h, observers, perG, bound, 1)
			checkHistWindow(t, h, phaseA, bound)
			ring.Rotate()
			phaseB := observePhase(t, h, observers, perG, bound, 2)
			checkHistWindow(t, h, append(append([]uint64{}, phaseA...), phaseB...), bound)

			// Rotate until phase A has seen epochs rotations: A expires,
			// B (epochs-1 rotations) is still live.
			for i := 0; i < epochs-1; i++ {
				ring.Rotate()
			}
			checkHistWindow(t, h, phaseB, bound)

			// Reset evicts the whole window at once; the empty window
			// answers every query validly.
			if err := h.Reset(); err != nil {
				t.Fatal(err)
			}
			checkHistWindow(t, h, nil, bound)

			// The object keeps working after Reset.
			phaseC := observePhase(t, h, observers, perG, bound, 3)
			checkHistWindow(t, h, phaseC, bound)
		})
	}
}

// TestWindowedCounterReadsLastWindow pins the public windowed-counter
// semantics end to end: reads sum only the live epochs, Snapshot(reset)
// is read-and-restart, and the envelope carries the Window term.
func TestWindowedCounterReadsLastWindow(t *testing.T) {
	const epochs = 3
	c, err := NewCounter(WithProcs(2), WithWindow(time.Hour, epochs))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if b := c.Bounds(); b.Window != time.Hour/epochs {
		t.Fatalf("Bounds.Window = %v, want %v", b.Window, time.Hour/epochs)
	}

	ring := epochRing(t, c.rt)
	h, release := c.Acquire()
	defer release()
	for i := 0; i < 5; i++ {
		h.Inc()
	}
	// The 5 increments survive epochs-1 further rotations, then expire.
	for i := 0; i < epochs-1; i++ {
		ring.Rotate()
		if got := h.Read(); got != 5 {
			t.Fatalf("read after %d rotations = %d, want 5 (still in window)", i+1, got)
		}
	}
	ring.Rotate()
	if got := h.Read(); got != 0 {
		t.Fatalf("read after %d rotations = %d, want 0 (expired)", epochs, got)
	}

	// Snapshot(reset): read the window, then restart it.
	for i := 0; i < 3; i++ {
		h.Inc()
	}
	v, err := c.Snapshot(true)
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Fatalf("Snapshot(reset) = %d, want 3", v)
	}
	if got := h.Read(); got != 0 {
		t.Fatalf("read after Snapshot(reset) = %d, want 0", got)
	}
}

// epochRing returns the epoch ring behind a windowed object's runtime,
// failing the test when the object is not backed by one.
func epochRing(t *testing.T, rt shardRuntime) interface{ Rotate() } {
	t.Helper()
	ring, ok := rt.(interface{ Rotate() })
	if !ok {
		t.Fatalf("WithWindow object is backed by %T, not the epoch ring", rt)
	}
	return ring
}

// TestCumulativeResetErrors pins the Reset/Close lifecycle of every kind,
// cumulative and windowed. A cumulative object refuses Reset with its
// kind's own error. A windowed one resets, closes idempotently, then
// refuses Reset (the window is frozen) while pooled reads keep
// returning its last value.
func TestCumulativeResetErrors(t *testing.T) {
	type lifecycle struct {
		obj interface {
			Reset() error
			Close()
		}
		write func()        // one mutation through a pooled handle
		read  func() uint64 // the object's value through a pooled handle
	}
	for _, tc := range []struct {
		kind    string
		build   func(opts ...Option) (lifecycle, error)
		written uint64 // read after one write
	}{
		{"counter", func(opts ...Option) (lifecycle, error) {
			c, err := NewCounter(opts...)
			return lifecycle{c, func() { c.Do(func(h CounterHandle) { h.Inc() }) },
				func() (v uint64) { c.Do(func(h CounterHandle) { v = h.Read() }); return v }}, err
		}, 1},
		{"max register", func(opts ...Option) (lifecycle, error) {
			r, err := NewMaxRegister(opts...)
			return lifecycle{r, func() { r.Do(func(h MaxRegisterHandle) { h.Write(7) }) },
				func() (v uint64) { r.Do(func(h MaxRegisterHandle) { v = h.Read() }); return v }}, err
		}, 7},
		{"snapshot", func(opts ...Option) (lifecycle, error) {
			s, err := NewSnapshot(opts...)
			return lifecycle{s, func() { s.Do(func(h SnapshotHandle) { h.Update(7) }) },
				func() (v uint64) { s.Do(func(h SnapshotHandle) { v = h.Scan()[0] }); return v }}, err
		}, 7},
		{"histogram", func(opts ...Option) (lifecycle, error) {
			hg, err := NewHistogram(append(opts, WithBound(1024))...)
			return lifecycle{hg, func() { hg.Do(func(h HistogramHandle) { h.Observe(7) }) },
				func() (v uint64) { hg.Do(func(h HistogramHandle) { v = h.Count() }); return v }}, err
		}, 1},
	} {
		t.Run(tc.kind+"/cumulative", func(t *testing.T) {
			o, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			defer o.obj.Close()
			want := "approxobj: Reset needs a windowed " + tc.kind + " (WithWindow); this one is cumulative"
			if err := o.obj.Reset(); err == nil || err.Error() != want {
				t.Errorf("cumulative Reset = %v, want %q", err, want)
			}
		})
		t.Run(tc.kind+"/windowed", func(t *testing.T) {
			o, err := tc.build(WithWindow(time.Hour, 3))
			if err != nil {
				t.Fatal(err)
			}
			o.write()
			if err := o.obj.Reset(); err != nil {
				t.Fatalf("windowed Reset: %v", err)
			}
			if got := o.read(); got != 0 {
				t.Fatalf("read after Reset = %d, want 0", got)
			}
			o.write()
			o.obj.Close()
			o.obj.Close() // idempotent
			if err := o.obj.Reset(); err == nil {
				t.Error("Reset after Close succeeded, want the frozen-window error")
			}
			if got := o.read(); got != tc.written {
				t.Errorf("pooled read after Close = %d, want the last value %d", got, tc.written)
			}
		})
	}
}
