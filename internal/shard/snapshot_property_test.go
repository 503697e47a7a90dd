package shard_test

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"approxobj/internal/planetest"
	"approxobj/internal/shard"
)

// runSnapshotEnvelopeCheck drives writers goroutines, each the single
// writer of its own component (op j writes planetest.SeqValue(j)),
// against a sharded snapshot while one dedicated reader checks EVERY
// concurrently scanned component against the documented per-component
// envelope, relative to the component's regularity window: between the
// updates completed before the scan started and those started before it
// returned (planetest.Window computes the value hull of that window —
// tight for the monotone sequence, conservative for the mixed one).
func runSnapshotEnvelopeCheck(t *testing.T, writers, perG int, mixed bool, cfg shard.Config) {
	t.Helper()
	n := writers + 1 // slot n-1 is the reader
	sn, err := shard.NewSnapshot(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bounds := sn.Bounds()

	started := make([]atomic.Uint64, writers)   // updates started per component
	completed := make([]atomic.Uint64, writers) // updates completed per component
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(writers)
	handles := make([]*shard.SnapshotHandle, writers)
	for i := 0; i < writers; i++ {
		h := sn.Handle(i)
		handles[i] = h
		if h.Component() != i {
			t.Fatalf("handle %d reports component %d", i, h.Component())
		}
		i := i
		go func() {
			defer wg.Done()
			for j := 1; j <= perG; j++ {
				started[i].Store(uint64(j))
				h.Update(planetest.SeqValue(uint64(j), mixed))
				completed[i].Store(uint64(j))
			}
		}()
	}

	var checks uint64
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	rh := sn.Handle(n - 1)
	go func() {
		defer readerWG.Done()
		check := func() {
			a := make([]uint64, writers)
			for i := range a {
				a[i] = completed[i].Load()
			}
			view := rh.Scan()
			for i := 0; i < writers; i++ {
				b := started[i].Load()
				// The component's true value during the scan is
				// SeqValue(t) for some op t in [a[i], b]: inside the
				// window's value hull.
				vmin, vmax := planetest.Window(a[i], b, mixed)
				checks++
				if !bounds.ContainsRange(vmin, vmax, view[i]) {
					t.Errorf("component %d read %d outside envelope %+v for any value in [%d, %d]", i, view[i], bounds, vmin, vmax)
				}
			}
		}
		for !done.Load() {
			check()
		}
		check() // one fully quiescent scan
	}()

	wg.Wait()
	done.Store(true)
	readerWG.Wait()
	if checks == 0 {
		t.Fatal("reader performed no checks")
	}

	// After flushing every writer handle the elision headroom disappears:
	// the exact backend's merged scan must equal each component's final
	// value exactly.
	for _, h := range handles {
		h.Flush()
	}
	view := rh.Scan()
	for i := 0; i < writers; i++ {
		if want := planetest.SeqValue(uint64(perG), mixed); view[i] != want {
			t.Errorf("component %d flushed scan = %d, want exactly %d", i, view[i], want)
		}
	}
}

// TestShardedSnapshotEnvelopeSweep sweeps (writers, shards, batch) over
// monotone and mixed per-component sequences, checking every
// concurrently scanned component against the documented envelope. Note
// Bounds is identical for every shard count: the per-component merge
// widens nothing.
func TestShardedSnapshotEnvelopeSweep(t *testing.T) {
	perG := 2_000
	if testing.Short() {
		perG = 300
	}
	for _, writers := range []int{1, 3} {
		for _, s := range []int{1, 2, 5} {
			for _, b := range []int{1, 8} {
				for _, mixed := range []bool{false, true} {
					name := "mono"
					if mixed {
						name = "mixed"
					}
					t.Run(
						name+"-w"+itoa(writers)+"-s"+itoa(s)+"-b"+itoa(b),
						func(t *testing.T) {
							t.Parallel()
							runSnapshotEnvelopeCheck(t, writers, perG, mixed,
								shard.Config{Shards: s, Batch: b})
						})
				}
			}
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestSnapshotShardingInvariance pins the composition claim directly:
// the envelope must not depend on the shard count.
func TestSnapshotShardingInvariance(t *testing.T) {
	var want shard.Bounds
	for s := 1; s <= 4; s++ {
		sn, err := shard.NewSnapshot(4, shard.Config{Shards: s, Batch: 5})
		if err != nil {
			t.Fatal(err)
		}
		if s == 1 {
			want = sn.Bounds()
			if want != (shard.Bounds{Mult: 1, Add: 0, Buffer: 4}) {
				t.Fatalf("unsharded snapshot Bounds = %+v, want {Mult:1 Add:0 Buffer:4}", want)
			}
			continue
		}
		if got := sn.Bounds(); got != want {
			t.Errorf("S=%d Bounds = %+v, want %+v (independent of S)", s, got, want)
		}
	}
}

// TestSnapshotElision pins the component-elision semantics directly on
// the handle: upward moves inside the window stay local (no shared
// steps, latest value pending), downward moves and moves past the window
// write through, Flush publishes the pending value.
func TestSnapshotElision(t *testing.T) {
	const b = 4 // elision window [flushed, flushed+3]
	sn, err := shard.NewSnapshot(2, shard.Config{Shards: 2, Batch: b})
	if err != nil {
		t.Fatal(err)
	}
	w := sn.Handle(0)
	r := sn.Handle(1)

	shared := func(f func()) uint64 {
		before := w.Steps()
		f()
		return w.Steps() - before
	}

	// 1 is inside the initial window [0, 3]: elided, invisible to scans.
	if s := shared(func() { w.Update(1) }); s != 0 {
		t.Errorf("Update(1) inside the window took %d shared steps, want 0", s)
	}
	if w.Pending() != 1 {
		t.Errorf("Pending = %d after eliding 1, want 1", w.Pending())
	}
	if v := r.Scan()[0]; v != 0 {
		t.Errorf("component 0 scans as %d after elided update, want 0", v)
	}

	// 5 leaves the window: written through, pending superseded.
	if s := shared(func() { w.Update(5) }); s == 0 {
		t.Error("Update(5) outside the window took no shared steps")
	}
	if v := r.Scan()[0]; v != 5 {
		t.Errorf("component 0 scans as %d after write-through of 5, want 5", v)
	}

	// 6..8 are inside [5, 8]: elided, the LATEST (not highest) pending.
	if s := shared(func() { w.Update(8); w.Update(6) }); s != 0 {
		t.Errorf("in-window updates took %d shared steps, want 0", s)
	}
	if w.Pending() != 6 {
		t.Errorf("Pending = %d, want the latest elided value 6", w.Pending())
	}

	// A downward move always writes through: scans must not overstate.
	if s := shared(func() { w.Update(2) }); s == 0 {
		t.Error("downward Update(2) took no shared steps")
	}
	if v := r.Scan()[0]; v != 2 {
		t.Errorf("component 0 scans as %d after downward move, want 2", v)
	}

	// Re-writing the flushed value supersedes any pending elision.
	w.Update(3)
	w.Update(2)
	if w.Pending() != 0 {
		t.Errorf("Pending = %d after returning to the flushed value, want 0", w.Pending())
	}

	// Flush publishes the pending elided value.
	w.Update(4)
	w.Flush()
	if v := r.Scan()[0]; v != 4 {
		t.Errorf("component 0 scans as %d after Flush, want 4", v)
	}
	if w.Pending() != 0 {
		t.Errorf("Pending = %d after Flush, want 0", w.Pending())
	}
}

// TestNewSnapshotValidation mirrors the other kinds' constructor checks.
func TestNewSnapshotValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		cfg  shard.Config
		want string // error substring; "" means valid
	}{
		{name: "ok", n: 4, cfg: shard.Config{Shards: 3, Batch: 16}},
		{name: "zero-procs", n: 0, want: "at least one process"},
	} {
		_, err := shard.NewSnapshot(tc.n, tc.cfg)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", tc.name, err, tc.want)
		}
	}
}

// FuzzSnapshotAccuracy lets the fuzzer pick the configuration: any
// (writers, shards, batch, ops) combination must keep every concurrently
// scanned component inside the envelope, under both the monotone and the
// mixed per-component sequences of runSnapshotEnvelopeCheck. The seeds
// cover the corners (single shard, batch 1, wide elision window); 'go
// test' runs them on every CI pass and
// 'go test -fuzz=FuzzSnapshotAccuracy ./internal/shard' explores further.
func FuzzSnapshotAccuracy(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), uint16(200), false)
	f.Add(uint8(3), uint8(4), uint8(8), uint16(1000), true)
	f.Add(uint8(4), uint8(2), uint8(64), uint16(2000), true)
	f.Fuzz(func(t *testing.T, writersIn, sIn, bIn uint8, opsIn uint16, mixed bool) {
		writers := int(writersIn)%4 + 1
		s := int(sIn)%8 + 1
		b := int(bIn)%64 + 1
		perG := int(opsIn)%2_000 + 50
		runSnapshotEnvelopeCheck(t, writers, perG, mixed,
			shard.Config{Shards: s, Batch: b})
	})
}
