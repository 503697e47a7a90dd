package snapshot

import (
	"sync"
	"testing"

	"approxobj/internal/prim"
)

func TestSnapshotSequential(t *testing.T) {
	const n = 3
	f := prim.NewFactory(n)
	s, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*Handle, n)
	for i := range handles {
		handles[i] = s.Handle(f.Proc(i))
	}

	view := handles[0].Scan()
	for i, v := range view {
		if v != 0 {
			t.Fatalf("initial component %d = %d, want 0", i, v)
		}
	}
	handles[0].Update(5)
	handles[2].Update(7)
	view = handles[1].Scan()
	want := []uint64{5, 0, 7}
	for i := range want {
		if view[i] != want[i] {
			t.Fatalf("view = %v, want %v", view, want)
		}
	}
	handles[0].Update(6)
	view = handles[1].Scan()
	if view[0] != 6 {
		t.Fatalf("component 0 = %d after second update, want 6", view[0])
	}
}

func TestSnapshotScanIsView(t *testing.T) {
	// Concurrent updates: every scan must be *some* consistent cut —
	// component values never regress across sequential scans.
	const n = 4
	const updates = 300
	f := prim.NewFactory(n)
	s, err := New(f)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < n-1; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := s.Handle(f.Proc(i))
			for v := 1; v <= updates; v++ {
				h.Update(uint64(v))
			}
		}(i)
	}

	reader := s.Handle(f.Proc(n - 1))
	prev := make([]uint64, n)
	for j := 0; j < 200; j++ {
		view := reader.Scan()
		for i := range view {
			if view[i] < prev[i] {
				t.Fatalf("scan %d: component %d regressed %d -> %d", j, i, prev[i], view[i])
			}
		}
		prev = view
	}
	wg.Wait()

	final := reader.Scan()
	for i := 0; i < n-1; i++ {
		if final[i] != updates {
			t.Fatalf("final component %d = %d, want %d", i, final[i], updates)
		}
	}
}

func TestSnapshotRejectsZeroProcs(t *testing.T) {
	if _, err := New(prim.NewFactory(0)); err == nil {
		t.Fatal("New with 0 procs succeeded")
	}
}

func TestSnapshotN(t *testing.T) {
	f := prim.NewFactory(5)
	s, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d, want 5", s.N())
	}
}
