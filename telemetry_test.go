package approxobj

import (
	"runtime"
	"testing"
)

// TestTelemetryDropsCollectedObjects checks that a telemetry domain does
// not keep the objects built into it alive: once 2,000 closed,
// unreferenced instrumented counters are collected, the domain's
// resident-bytes gauge reads only the live object and holds no gauge for
// the dropped ones.
func TestTelemetryDropsCollectedObjects(t *testing.T) {
	tel := NewTelemetry()
	build := func() *Counter {
		c, err := NewCounter(WithProcs(2), WithShards(4), WithTelemetry(tel))
		if err != nil {
			t.Fatal(err)
		}
		c.Handle(0).Inc()
		return c
	}
	live := build()
	for range 2000 {
		build().Close()
	}
	runtime.GC()
	if got, want := tel.sink.ResidentBytes(), 16*live.BaseObjects(); got != want {
		t.Errorf("resident bytes after the dropped objects were collected: %d, want %d (the live object's)", got, want)
	}
	if n := tel.sink.Gauges(); n != 1 {
		t.Errorf("%d resident gauges left in the domain, want 1 (the live object's)", n)
	}
	runtime.KeepAlive(live)
	live = nil
	runtime.GC()
	if got, n := tel.sink.ResidentBytes(), tel.sink.Gauges(); got != 0 || n != 0 {
		t.Errorf("after the last object was collected: %d resident bytes over %d gauges, want 0 over 0", got, n)
	}
}
