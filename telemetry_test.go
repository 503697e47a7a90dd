package approxobj

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"approxobj/internal/telemetry"
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

// TestElidedWriteMeterDrainsOnRehome pins that a handle's batched
// telemetry locals reach the sink on every Flush, not only on one that
// publishes buffered state. A subsumed max-register write, and a
// snapshot component's return to its flushed value, count an elided
// write and leave nothing pending; a window handle drops an epoch's
// handle when it re-homes, so those events would be lost on every
// rotation and leave the meter outside its own envelope.
func TestElidedWriteMeterDrainsOnRehome(t *testing.T) {
	const rounds, perRound = 4, 200
	for _, tc := range []struct {
		kind  string
		build func(tel *Telemetry) (obj interface{ Close() }, rt shardRuntime, round func(), read func(), err error)
	}{
		{"max register", func(tel *Telemetry) (interface{ Close() }, shardRuntime, func(), func(), error) {
			r, err := NewMaxRegister(WithWindow(time.Hour, 2), WithTelemetry(tel))
			if err != nil {
				return nil, nil, nil, nil, err
			}
			h := r.Handle(0)
			return r, r.rt, func() {
				h.Write(1000) // written through
				for i := 0; i < perRound; i++ {
					h.Write(5) // subsumed: elided, nothing pending
				}
			}, func() { h.Read() }, nil
		}},
		{"snapshot", func(tel *Telemetry) (interface{ Close() }, shardRuntime, func(), func(), error) {
			s, err := NewSnapshot(WithWindow(time.Hour, 2), WithBatch(16), WithTelemetry(tel))
			if err != nil {
				return nil, nil, nil, nil, err
			}
			h := s.Handle(0)
			return s, s.rt, func() {
				for i := 0; i < perRound/2; i++ {
					h.Update(5) // inside the window: elided, pending
					h.Update(0) // back at the flushed value: elided, nothing pending
				}
			}, func() { h.Scan() }, nil
		}},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			tel := NewTelemetry()
			obj, rt, round, read, err := tc.build(tel)
			if err != nil {
				t.Fatal(err)
			}
			defer obj.Close()
			ring := epochRing(t, rt)
			for r := 0; r < rounds; r++ {
				round()
				ring.Rotate() // two rotations of a 2-epoch ring: the handle
				ring.Rotate() // re-homes on the same ring slot
			}
			read()
			reg := NewRegistry()
			if err := reg.SelfMetrics(tel); err != nil {
				t.Fatal(err)
			}
			for _, s := range reg.Snapshot() {
				if s.Name != "approx_runtime_elided_writes" {
					continue
				}
				if !s.Bounds.Contains(rounds*perRound, s.Value) {
					t.Fatalf("%s reads %d after %d elided writes, outside its envelope %+v", s.Name, s.Value, rounds*perRound, s.Bounds)
				}
				return
			}
			t.Fatal("no approx_runtime_elided_writes meter")
		})
	}
}

// TestBatchedMeterLagCountsCallerSlots pins the batched meters' Buffer
// term to the slots that can hold a batched telemetry local: the caller
// slots, which mutate. A registry-owned cached object also has a
// snapshot slot and a refresh slot, which only read, so with
// WithProcs(1) the term is 255, not 765. The windowed case rotates the
// ring, so the refresh slot's window handle re-homes and flushes an
// empty buffer while it serves inline refreshes.
func TestBatchedMeterLagCountsCallerSlots(t *testing.T) {
	const incs, batch = 1000, 4
	for _, procs := range []int{1, 3} {
		for _, windowed := range []bool{false, true} {
			opts := []Option{WithProcs(procs), WithBatch(batch), WithReadCache(time.Millisecond)}
			name := fmt.Sprintf("procs=%d/cumulative", procs)
			if windowed {
				opts = append(opts, WithWindow(time.Hour, 2))
				name = fmt.Sprintf("procs=%d/windowed", procs)
			}
			t.Run(name, func(t *testing.T) {
				tel := NewTelemetry()
				reg := NewRegistry()
				defer reg.Close()
				c, err := reg.Counter("requests", append(opts, WithTelemetry(tel))...)
				if err != nil {
					t.Fatal(err)
				}
				h := c.Handle(0).(BatchedCounterHandle)
				for i := 0; i < incs; i++ {
					if i%100 == 0 { // between batches: nothing pending
						h.Read()
						reg.Snapshot()
						if windowed {
							epochRing(t, c.rt).Rotate()
						}
					}
					h.Inc()
				}
				h.Flush()
				meters := NewRegistry()
				if err := meters.SelfMetrics(tel); err != nil {
					t.Fatal(err)
				}
				for _, s := range meters.Snapshot() {
					if s.Name != "approx_runtime_buffer_hits" {
						continue
					}
					if want := uint64(telemetry.CounterBatch-1) * uint64(procs); s.Bounds.Buffer != want {
						t.Errorf("%s: Buffer %d, want %d (%d per caller slot)", s.Name, s.Bounds.Buffer, want, telemetry.CounterBatch-1)
					}
					if hits := uint64(incs - incs/batch); !s.Bounds.Contains(hits, s.Value) {
						t.Errorf("%s reads %d after %d buffered increments, outside its envelope %+v", s.Name, s.Value, hits, s.Bounds)
					}
					return
				}
				t.Fatal("no approx_runtime_buffer_hits meter")
			})
		}
	}
}
