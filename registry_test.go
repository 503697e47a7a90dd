package approxobj

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1, err := r.Counter("requests", WithProcs(4), WithAccuracy(Multiplicative(3)))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := r.Counter("requests", WithProcs(4), WithAccuracy(Multiplicative(3)))
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("re-registering the same spec did not return the existing counter")
	}
	if _, err := r.Counter("requests", WithProcs(8), WithAccuracy(Multiplicative(3))); err == nil {
		t.Error("conflicting spec for an existing name accepted")
	} else if !strings.Contains(err.Error(), "conflicting") {
		t.Errorf("conflict error %q does not say so", err)
	}
	if _, err := r.MaxRegister("requests"); err == nil {
		t.Error("registering a max register under a counter's name accepted")
	}
	m1, err := r.MaxRegister("peak", WithBound(1024))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := r.MaxRegister("peak", WithBound(1024))
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("re-registering the same spec did not return the existing max register")
	}
	if _, err := r.Counter("peak"); err == nil {
		t.Error("registering a counter under a max register's name accepted")
	}
	if got := r.Names(); len(got) != 2 || got[0] != "requests" || got[1] != "peak" {
		t.Errorf("Names() = %v, want [requests peak] in registration order", got)
	}
	// Validation errors surface through the registry too, accounting for
	// the extra snapshot slot: k=2 fits 4 caller slots, not 4+1.
	if _, err := r.Counter("tight", WithProcs(4), WithAccuracy(Multiplicative(2))); err == nil {
		t.Error("k=2 with 4 caller slots + snapshot slot accepted (needs k >= sqrt(5))")
	} else if !strings.Contains(err.Error(), "snapshot slot") {
		t.Errorf("error %q does not mention the snapshot slot", err)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	reqs, err := r.Counter("requests", WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	approx, err := r.Counter("requests-approx", WithProcs(2), WithAccuracy(Multiplicative(2)), WithBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	peak, err := r.MaxRegister("peak", WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}

	reqs.Do(func(h CounterHandle) {
		for i := 0; i < 100; i++ {
			h.Inc()
		}
	})
	approx.Do(func(h CounterHandle) {
		for i := 0; i < 100; i++ {
			h.Inc()
		}
	})
	peak.Do(func(h MaxRegisterHandle) { h.Write(77) })

	snaps := r.Snapshot()
	if len(snaps) != 3 {
		t.Fatalf("Snapshot returned %d entries, want 3", len(snaps))
	}
	byName := map[string]ObjectSnapshot{}
	for _, s := range snaps {
		byName[s.Name] = s
	}
	if s := byName["requests"]; s.Kind != KindCounter || s.Value != 100 || !s.Bounds.IsExact() {
		t.Errorf("requests snapshot = %+v, want exact value 100", s)
	}
	if s := byName["requests-approx"]; !s.Bounds.Contains(100, s.Value) {
		t.Errorf("requests-approx snapshot value %d outside its own bounds %+v for count 100", s.Value, s.Bounds)
	} else if s.Bounds.Mult != 2 || s.Bounds.Buffer != 3*2 {
		// Buffer counts caller slots only: the registry's snapshot slot
		// never buffers increments.
		t.Errorf("requests-approx bounds = %+v, want Mult 2 and Buffer (B-1)*n = 6", s.Bounds)
	}
	if s := byName["peak"]; s.Kind != KindMaxRegister || s.Value != 77 {
		t.Errorf("peak snapshot = %+v, want value 77", s)
	}
	for _, s := range snaps {
		if s.Steps == 0 {
			t.Errorf("%s snapshot reports zero cumulative steps", s.Name)
		}
	}
}

// TestRegistryHistogramObject pins the histogram getter's get-or-create
// semantics and the self-consistency of the exported (Value, Bounds)
// pair with the distribution queried through handles.
func TestRegistryHistogramObject(t *testing.T) {
	r := NewRegistry()
	h1, err := r.HistogramObject("lat", WithProcs(2), WithAccuracy(Multiplicative(2)), WithBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := r.HistogramObject("lat", WithProcs(2), WithAccuracy(Multiplicative(2)), WithBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("re-registering the same spec did not return the existing histogram")
	}
	if _, err := r.HistogramObject("lat", WithProcs(4), WithAccuracy(Multiplicative(2))); err == nil {
		t.Error("conflicting spec for an existing name accepted")
	}
	if _, err := r.Counter("lat"); err == nil {
		t.Error("registering a counter under a histogram's name accepted")
	}

	h1.Do(func(h HistogramHandle) {
		for j := 1; j <= 100; j++ {
			h.Observe(uint64(j))
		}
	})
	snaps := r.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("Snapshot returned %d entries, want 1", len(snaps))
	}
	s := snaps[0]
	if s.Kind != KindHistogram {
		t.Fatalf("snapshot kind = %v, want histogram", s.Kind)
	}
	// The worker's handle was released (flushed), so the exported count is
	// exact — and its paired envelope must be rank-domain only (Mult 1,
	// Buffer over caller slots), so the pair stays self-consistent.
	if s.Value != 100 {
		t.Errorf("snapshot value = %d, want the exact observation count 100", s.Value)
	}
	if want := (Bounds{Mult: 1, Buffer: 3 * 2}); s.Bounds != want {
		t.Errorf("snapshot bounds = %+v, want %+v", s.Bounds, want)
	}
	// The distribution itself is self-consistent with the object's own
	// Bounds: the median of 1..100 rounds down by at most the Mult factor.
	h1.Do(func(h HistogramHandle) {
		p50 := h.Quantile(0.5)
		if k := h1.Bounds().Mult; p50 > 50 || p50*k <= 50 {
			t.Errorf("p50 = %d not within factor %d below the true median 50", p50, k)
		}
	})
}

// TestRegistryHistogramSnapshotReadsOnce pins that Registry.Snapshot
// reads a histogram once: Value and the Histogram detail come from one
// bucket read. Between two quiescent snapshots the object's Steps
// advance by one uncached read through the snapshot slot, Shards ×
// (procs+1) × Buckets, and under a concurrent observer every snapshot's
// Value equals its Histogram.Count.
func TestRegistryHistogramSnapshotReadsOnce(t *testing.T) {
	const procs, shards = 2, 4
	r := NewRegistry()
	h, err := r.HistogramObject("lat", WithProcs(procs), WithShards(shards), WithAccuracy(Multiplicative(2)))
	if err != nil {
		t.Fatal(err)
	}
	h.Do(func(hh HistogramHandle) { hh.Observe(5) })
	first, second := r.Snapshot()[0], r.Snapshot()[0]
	if got, want := second.Steps-first.Steps, uint64(shards*(procs+1)*h.Buckets()); got != want {
		t.Errorf("one snapshot took %d steps, want %d (Shards × (procs+1) × Buckets)", got, want)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := uint64(0); !stop.Load(); v++ {
			h.Do(func(hh HistogramHandle) { hh.Observe(v % 1000) })
		}
	}()
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	for i := 0; i < 2_000; i++ {
		s := r.Snapshot()[0]
		if s.Value != s.Histogram.Count {
			t.Fatalf("snapshot %d: Value = %d but Histogram.Count = %d", i, s.Value, s.Histogram.Count)
		}
	}
}

// TestRegistrySnapshotConcurrent takes snapshots while workers hold every
// pool slot and hammer the objects: the reserved snapshot slot means
// Snapshot neither deadlocks nor races, and every observed value respects
// the object's envelope against the regularity window. Run with -race.
func TestRegistrySnapshotConcurrent(t *testing.T) {
	const workers = 4
	perG := 5_000
	if testing.Short() {
		perG = 500
	}
	r := NewRegistry()
	c, err := r.Counter("hits", WithProcs(workers), WithAccuracy(Multiplicative(3)), WithShards(2), WithBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	bounds := c.Bounds()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range r.Snapshot() {
				// True count is somewhere in [0, workers*perG]; the value
				// must at least be inside the envelope of that range.
				if !s.Bounds.ContainsRange(0, uint64(workers*perG), s.Value) {
					t.Errorf("snapshot value %d outside envelope %+v for any count in [0, %d]", s.Value, s.Bounds, workers*perG)
					return
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Do(func(h CounterHandle) {
				for j := 0; j < perG; j++ {
					h.Inc()
				}
			})
		}()
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()

	// Workers released (flushed); a final snapshot sees the full count
	// within the flush-free envelope.
	final := r.Snapshot()[0]
	flushed := bounds
	flushed.Buffer = 0
	if !flushed.Contains(uint64(workers*perG), final.Value) {
		t.Errorf("final snapshot value %d outside flushed envelope %+v of true count %d", final.Value, flushed, workers*perG)
	}
}

// TestRegistrySnapshotRaceAllKinds takes registry snapshots while
// workers churn pooled handles (Acquire/Do/Release, including releases
// mid-run so slots change owners) on all four registered kinds at once.
// The reserved snapshot slot means Snapshot never contends for pool
// slots, and every polled value must respect the object's envelope
// against a conservative bound on the true value. Run with -race this is
// the cross-kind data-race check for the registry path of the backend
// plane.
func TestRegistrySnapshotRaceAllKinds(t *testing.T) {
	const workers = 3
	perG := 4_000
	if testing.Short() {
		perG = 400
	}
	const rounds = 4 // handle churn: each worker re-acquires this many times

	r := NewRegistry()
	c, err := r.Counter("hits", WithProcs(workers), WithAccuracy(Multiplicative(3)), WithShards(2), WithBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.MaxRegister("peak", WithProcs(workers), WithAccuracy(Multiplicative(2)), WithBound(1<<30), WithBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	s, err := r.SnapshotObject("load", WithProcs(workers), WithShards(2), WithBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	hg, err := r.HistogramObject("latency", WithProcs(workers), WithAccuracy(Multiplicative(2)), WithShards(2), WithBatch(8))
	if err != nil {
		t.Fatal(err)
	}

	// Conservative true-value ceilings for the concurrent envelope check.
	maxCount := uint64(workers * perG * rounds)
	maxWritten := uint64(perG)
	maxComponentSum := uint64(workers) * maxWritten
	maxObserved := uint64(workers * perG * rounds)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, os := range r.Snapshot() {
				var ceil uint64
				switch os.Name {
				case "hits":
					ceil = maxCount
				case "peak":
					ceil = maxWritten
				case "load":
					ceil = maxComponentSum
				case "latency":
					ceil = maxObserved
				}
				if !os.Bounds.ContainsRange(0, ceil, os.Value) {
					t.Errorf("%s snapshot value %d outside envelope %+v for any true value in [0, %d]", os.Name, os.Value, os.Bounds, ceil)
					return
				}
				if (os.Kind == KindSnapshot || os.Kind == KindHistogram) && os.Bounds.Mult != 1 {
					// Both kinds export a pure count as Value: the envelope
					// paired with it must not carry a value-domain factor.
					t.Errorf("%s kind reports Mult %d, want 1", os.Kind, os.Bounds.Mult)
					return
				}
			}
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				c.Do(func(h CounterHandle) {
					for j := 0; j < perG; j++ {
						h.Inc()
					}
				})
				m.Do(func(h MaxRegisterHandle) {
					for j := 1; j <= perG; j++ {
						h.Write(uint64(j))
						if j%9 == 0 {
							h.Read()
						}
					}
				})
				s.Do(func(h SnapshotHandle) {
					for j := 1; j <= perG; j++ {
						h.Update(uint64(j))
						if j%64 == 0 {
							h.Update(uint64(j) / 2) // downward move: always flushed
						}
						if j%500 == 0 {
							h.Scan()
						}
					}
					// The lease's last update is perG, whatever the loop's
					// dip cadence was: the final-sum check below relies on
					// every used slot ending at exactly perG.
					h.Update(uint64(perG))
				})
				hg.Do(func(h HistogramHandle) {
					for j := 1; j <= perG; j++ {
						h.Observe(uint64(j % 257))
						if j%300 == 0 {
							h.Quantile(0.95)
							h.Rank(64)
						}
					}
				})
			}
		}()
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()

	// All handles released (flushed): the final snapshot obeys each
	// object's flush-free envelope against the exact final state.
	for _, os := range r.Snapshot() {
		flushed := os.Bounds
		flushed.Buffer = 0
		switch os.Name {
		case "hits":
			if !flushed.Contains(maxCount, os.Value) {
				t.Errorf("final count %d outside flushed envelope %+v of %d", os.Value, flushed, maxCount)
			}
		case "peak":
			if !flushed.Contains(maxWritten, os.Value) {
				t.Errorf("final peak %d outside flushed envelope %+v of %d", os.Value, flushed, maxWritten)
			}
		case "load":
			// Every slot the pool ever handed out ends with its component
			// at exactly perG (releases flush elided updates, and the last
			// update of every lease is perG); slots never used stay 0. The
			// sum is therefore a positive multiple of perG up to the slot
			// count.
			if os.Value == 0 || os.Value%uint64(perG) != 0 || os.Value > maxComponentSum {
				t.Errorf("final component sum = %d, want a positive multiple of %d up to %d", os.Value, perG, maxComponentSum)
			}
		case "latency":
			// All handles released (flushed): the exported observation
			// count is exact.
			if os.Value != maxObserved {
				t.Errorf("final observation count = %d, want exactly %d", os.Value, maxObserved)
			}
		}
		if os.Steps == 0 {
			t.Errorf("%s reports zero cumulative steps", os.Name)
		}
	}
}

// TestRegistrySnapshotWhileRegistering races Snapshot against ongoing
// registrations: the fixed roster of objects is mutated continuously
// while snapshotters poll. Before the PR 6 fix, Snapshot held the
// registry lock across every object's multi-shard read, so a slow read
// serialized all registration; now the roster is copied under the lock
// and the reads happen outside it, serializing only per object. Run
// with -race this is the data-race check for that split.
func TestRegistrySnapshotWhileRegistering(t *testing.T) {
	r := NewRegistry()
	// One long-lived object so snapshots always have something to read.
	if _, err := r.Counter("base", WithProcs(2), WithShards(2)); err != nil {
		t.Fatal(err)
	}

	regs := 60
	if testing.Short() {
		regs = 15
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, os := range r.Snapshot() {
					if os.Name == "" {
						t.Error("snapshot entry with empty name")
						return
					}
				}
			}
		}()
	}

	names := make(map[string]bool)
	for i := 0; i < regs; i++ {
		name := "obj-" + strings.Repeat("x", i%7) + string(rune('a'+i%26))
		names[name] = true
		switch i % 3 {
		case 0:
			c, err := r.Counter(name, WithProcs(2), WithAccuracy(Multiplicative(3)))
			if err != nil {
				t.Fatal(err)
			}
			c.Do(func(h CounterHandle) { h.Inc() })
		case 1:
			m, err := r.MaxRegister(name, WithProcs(2), WithBound(1<<10))
			if err != nil {
				t.Fatal(err)
			}
			m.Do(func(h MaxRegisterHandle) { h.Write(uint64(i)) })
		default:
			if _, err := r.SnapshotObject(name, WithProcs(2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()

	// Quiesced: a final snapshot sees the complete roster in order.
	final := r.Snapshot()
	if want := len(names) + 1; len(final) != want {
		t.Fatalf("final snapshot has %d entries, want %d", len(final), want)
	}
	if final[0].Name != "base" {
		t.Errorf("first snapshot entry = %q, want the first registration", final[0].Name)
	}
}

// TestRegistryCloseContract pins the post-Close contract end to end:
// Close stops every background goroutine (the epoch rotators; cached
// objects run none), is idempotent, and afterwards Snapshot and direct
// reads neither panic nor block — they keep returning the last value
// (windowed objects freeze, so nothing ages out after Close).
func TestRegistryCloseContract(t *testing.T) {
	before := goroutines()

	r := NewRegistry()
	c, err := r.Counter("reqs", WithProcs(2), WithShards(2), WithReadCache(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	wc, err := r.Counter("reqs-window", WithProcs(2), WithWindow(time.Hour, 4), WithReadCache(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.MaxRegister("peak", WithProcs(2), WithWindow(time.Hour, 4))
	if err != nil {
		t.Fatal(err)
	}
	hg, err := r.HistogramObject("lat", WithProcs(2), WithAccuracy(Multiplicative(2)), WithWindow(time.Hour, 4))
	if err != nil {
		t.Fatal(err)
	}
	c.Do(func(h CounterHandle) { h.Inc(); h.Inc() })
	wc.Do(func(h CounterHandle) { h.Inc(); h.Inc(); h.Inc() })
	m.Do(func(h MaxRegisterHandle) { h.Write(41) })
	hg.Do(func(h HistogramHandle) { h.Observe(7) })

	r.Close()
	r.Close() // idempotent

	// Reads after Close return the last value, for both the snapshot
	// path and direct handles; the frozen window does not age anything
	// out, even across what would have been many rotation periods.
	time.Sleep(3 * time.Millisecond) // let the cached cells lapse: reads refresh inline
	for round := 0; round < 2; round++ {
		snap := r.Snapshot()
		got := map[string]uint64{}
		for _, os := range snap {
			got[os.Name] = os.Value
		}
		want := map[string]uint64{"reqs": 2, "reqs-window": 3, "peak": 41, "lat": 1}
		for name, v := range want {
			if got[name] != v {
				t.Errorf("round %d: post-Close snapshot %q = %d, want last value %d", round, name, got[name], v)
			}
		}
	}
	wc.Do(func(h CounterHandle) {
		if v := h.Read(); v != 3 {
			t.Errorf("post-Close direct windowed read = %d, want 3", v)
		}
	})
	if err := wc.Reset(); err == nil {
		t.Error("Reset after Close succeeded, want frozen-window error")
	}

	// No goroutine leak: the rotators are gone.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if goroutines() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before, %d after Close", before, goroutines())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func goroutines() int {
	runtime.GC()
	return runtime.NumGoroutine()
}
