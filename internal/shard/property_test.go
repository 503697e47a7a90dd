package shard_test

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"approxobj/internal/shard"
)

// runEnvelopeCheck is the property at the heart of the shard package: it
// runs incers incrementing goroutines plus one dedicated reader against a
// sharded counter and checks that EVERY read the reader observes is a
// valid response for some count inside the regularity window — between
// the increments completed before the read started (vmin) and those
// started before it returned (vmax), per Bounds.ContainsRange. The
// incrementers publish the window through two atomics bracketing each
// Inc, so the check is sound under any real-goroutine interleaving.
func runEnvelopeCheck(t *testing.T, incers int, k uint64, perG int, be shard.Backend, cfg shard.Config) {
	t.Helper()
	n := incers + 1 // slot n-1 is the reader
	c, err := shard.New(n, k, be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bounds := c.Bounds()

	var started, completed atomic.Uint64
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(incers)
	handles := make([]*shard.Handle, incers)
	for i := 0; i < incers; i++ {
		h := c.Handle(i)
		handles[i] = h
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				started.Add(1)
				h.Inc()
				completed.Add(1)
			}
		}()
	}

	var checks uint64
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	rh := c.Handle(n - 1)
	go func() {
		defer readerWG.Done()
		check := func() {
			vmin := completed.Load()
			x := rh.Read()
			vmax := started.Load()
			checks++
			if !bounds.ContainsRange(vmin, vmax, x) {
				t.Errorf("read %d outside envelope %+v for any count in [%d, %d]", x, bounds, vmin, vmax)
			}
		}
		for !done.Load() {
			check()
		}
		check() // one fully quiescent read
	}()

	wg.Wait()
	done.Store(true)
	readerWG.Wait()
	if checks == 0 {
		t.Fatal("reader performed no checks")
	}
	// After a global flush (of the goroutines' own handles — buffers are
	// per-handle, not per-slot) the buffered-increment slack disappears.
	var total uint64
	for _, h := range handles {
		h.Flush()
		total += uint64(perG)
	}
	flushed := bounds
	flushed.Buffer = 0
	if x := rh.Read(); !flushed.Contains(total, x) {
		t.Errorf("quiescent flushed read %d outside envelope %+v of true count %d", x, flushed, total)
	}
}

// kFor returns an accuracy parameter valid for the mult backend on n
// slots: at least 2 and at least ceil(sqrt(n)).
func kFor(n int, extra uint64) uint64 {
	k := uint64(math.Ceil(math.Sqrt(float64(n)))) + extra
	if k < 2 {
		k = 2
	}
	return k
}

// TestShardedEnvelopeSweep sweeps (incrementers, k, shards, batch) across
// all three backends, checking every concurrently observed read against
// the documented envelope.
func TestShardedEnvelopeSweep(t *testing.T) {
	perG := 4_000
	if testing.Short() {
		perG = 500
	}
	for _, incers := range []int{1, 3, 6} {
		for _, s := range []int{1, 2, 4} {
			for _, b := range []int{1, 7, 32} {
				k := kFor(incers+1, 1)
				cfg := shard.Config{Shards: s, Batch: b}
				runEnvelopeCheck(t, incers, k, perG, shard.MultBackend(), cfg)
				runEnvelopeCheck(t, incers, 0, perG/2, shard.AACHBackend(), cfg)
				runEnvelopeCheck(t, incers, 16, perG, shard.AdditiveBackend(), cfg)
			}
		}
	}
}

// FuzzShardedAccuracy lets the fuzzer pick the configuration: any
// (incrementers, shards, batch, k, ops) combination must keep every
// concurrent read inside the envelope. The seeds cover the corners
// (single shard, batch 1, max batch); 'go test' runs them on every CI
// pass and 'go test -fuzz=FuzzShardedAccuracy ./internal/shard' explores
// further.
func FuzzShardedAccuracy(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0), uint16(200))
	f.Add(uint8(3), uint8(4), uint8(8), uint8(2), uint16(1000))
	f.Add(uint8(4), uint8(2), uint8(64), uint8(5), uint16(2000))
	f.Fuzz(func(t *testing.T, incersIn, sIn, bIn, kIn uint8, opsIn uint16) {
		incers := int(incersIn)%4 + 1
		s := int(sIn)%8 + 1
		b := int(bIn)%64 + 1
		k := kFor(incers+1, uint64(kIn)%16)
		perG := int(opsIn)%2_000 + 50
		runEnvelopeCheck(t, incers, k, perG, shard.MultBackend(), shard.Config{Shards: s, Batch: b})
	})
}
