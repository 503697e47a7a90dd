package telemetry

import (
	"sync"
	"testing"
	"time"
)

// The nil sink is the disabled state: every method must be callable on
// a nil receiver and observe/return nothing.
func TestNilSinkIsInert(t *testing.T) {
	var s *Sink
	s.Inc(EvFlush, 0)
	var local uint64 = 3
	s.BumpLocal(EvCacheRead, 2, &local)
	if local != 3 {
		t.Errorf("nil BumpLocal touched the local accumulator: %d", local)
	}
	s.FlushLocal(EvCacheRead, 2, &local)
	s.ObserveRefresh(time.Second)
	s.AddLagUnits(4)
	s.RegisterResident(func() (uint64, bool) { return 1, true })
	s.SetTrace(func(TraceEvent, int, uint64) { t.Error("nil sink fired trace") }, 0)
	s.Trace(TraceFlush, 0, 1)
	if s.Total(EvFlush) != 0 || s.LagBound() != 0 ||
		s.RefreshHighWaterNs() != 0 || s.ResidentBytes() != 0 || s.Gauges() != 0 {
		t.Error("nil sink reported nonzero state")
	}
}

// Totals fold across stripes regardless of the hints writers used.
func TestTotalFoldsStripes(t *testing.T) {
	s := New()
	for hint := 0; hint < 3*stripeCount; hint++ {
		s.Inc(EvFlush, hint)
		s.Inc(EvElidedWrite, -hint)
		s.Inc(EvElidedWrite, -hint)
	}
	if got := s.Total(EvFlush); got != 3*stripeCount {
		t.Errorf("Total(EvFlush) = %d, want %d", got, 3*stripeCount)
	}
	if got := s.Total(EvElidedWrite); got != 6*stripeCount {
		t.Errorf("Total(EvElidedWrite) = %d, want %d", got, 6*stripeCount)
	}
	if got := s.Total(EvRotation); got != 0 {
		t.Errorf("Total(EvRotation) = %d, want 0", got)
	}
}

// BumpLocal publishes only on batch expiry; FlushLocal drains the
// residue; the unpublished residue is bounded by LagBound.
func TestBumpLocalBatching(t *testing.T) {
	s := New()
	s.AddLagUnits(1)
	var local uint64
	for i := 0; i < CounterBatch-1; i++ {
		s.BumpLocal(EvCacheRead, 0, &local)
	}
	if got := s.Total(EvCacheRead); got != 0 {
		t.Errorf("published %d events before the batch expired", got)
	}
	if local != CounterBatch-1 {
		t.Errorf("local = %d, want %d", local, CounterBatch-1)
	}
	if got, want := s.LagBound(), uint64(CounterBatch-1); got != want {
		t.Errorf("LagBound = %d, want %d", got, want)
	}
	s.BumpLocal(EvCacheRead, 0, &local) // batch expires
	if got := s.Total(EvCacheRead); got != CounterBatch {
		t.Errorf("Total after batch expiry = %d, want %d", got, CounterBatch)
	}
	if local != 0 {
		t.Errorf("local not reset after publish: %d", local)
	}
	for i := 0; i < 5; i++ {
		s.BumpLocal(EvCacheRead, 0, &local)
	}
	s.FlushLocal(EvCacheRead, 0, &local)
	if got := s.Total(EvCacheRead); got != CounterBatch+5 {
		t.Errorf("Total after FlushLocal = %d, want %d", got, CounterBatch+5)
	}
}

func TestObserveRefreshIsMax(t *testing.T) {
	s := New()
	s.ObserveRefresh(5 * time.Microsecond)
	s.ObserveRefresh(2 * time.Microsecond)
	if got := s.RefreshHighWaterNs(); got != 5000 {
		t.Errorf("high-water = %d ns, want 5000", got)
	}
	s.ObserveRefresh(0)
	s.ObserveRefresh(-time.Second)
	if got := s.RefreshHighWaterNs(); got != 5000 {
		t.Errorf("non-positive observation moved the mark: %d", got)
	}
}

func TestResidentBytesSumsGauges(t *testing.T) {
	s := New()
	live := true
	s.RegisterResident(func() (uint64, bool) { return 100, true })
	s.RegisterResident(func() (uint64, bool) { return 28, live })
	s.RegisterResident(func() (uint64, bool) { return 5, true })
	s.RegisterResident(nil) // ignored
	if got, n := s.ResidentBytes(), s.Gauges(); got != 133 || n != 3 {
		t.Errorf("ResidentBytes = %d over %d gauges, want 133 over 3", got, n)
	}
	live = false // the 28-byte gauge's object is gone
	if got, n := s.ResidentBytes(), s.Gauges(); got != 105 || n != 2 {
		t.Errorf("after one object went: ResidentBytes = %d over %d gauges, want 105 over 2", got, n)
	}
}

// sampleShift 0 fires on every event; a large shift fires on almost
// none (bounded check, not exact — the sampler is pseudorandom).
func TestTraceSampling(t *testing.T) {
	s := New()
	var fired int
	var lastEv TraceEvent
	var lastSlot int
	var lastVal uint64
	s.SetTrace(func(ev TraceEvent, slot int, value uint64) {
		fired++
		lastEv, lastSlot, lastVal = ev, slot, value
	}, 0)
	const n = 1000
	for i := 0; i < n; i++ {
		s.Trace(TraceRotation, 7, uint64(i))
	}
	if fired != n {
		t.Errorf("shift 0: fired %d of %d", fired, n)
	}
	if lastEv != TraceRotation || lastSlot != 7 || lastVal != n-1 {
		t.Errorf("trace payload = (%v, %d, %d)", lastEv, lastSlot, lastVal)
	}

	s2 := New()
	fired = 0
	s2.SetTrace(func(TraceEvent, int, uint64) { fired++ }, 10) // ~1/1024
	for i := 0; i < n; i++ {
		s2.Trace(TraceFlush, 0, 0)
	}
	if fired > n/10 {
		t.Errorf("shift 10: fired %d of %d, want a sparse sample", fired, n)
	}
}

// Concurrent counting loses nothing: the striped counters are exact;
// only BumpLocal batching (whose residue the meters' envelope carries)
// is approximate.
func TestConcurrentCounting(t *testing.T) {
	s := New()
	const workers, per = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(hint int) {
			defer wg.Done()
			var local uint64
			for i := 0; i < per; i++ {
				s.Inc(EvFlush, hint)
				s.BumpLocal(EvCacheRead, hint, &local)
			}
			s.FlushLocal(EvCacheRead, hint, &local)
		}(w)
	}
	wg.Wait()
	if got := s.Total(EvFlush); got != workers*per {
		t.Errorf("Total(EvFlush) = %d, want %d", got, workers*per)
	}
	if got := s.Total(EvCacheRead); got != workers*per {
		t.Errorf("Total(EvCacheRead) = %d, want %d", got, workers*per)
	}
}
