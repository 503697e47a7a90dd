package snapshot

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"approxobj/internal/prim"
	"approxobj/internal/sim"
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

// TestMergeIntoIsAScan pins MergeInto as a scan: it returns the
// element-wise max of the accumulator and ScanInto's view, in ScanInto's
// steps, whichever way the scan ends. A quiet snapshot ends in two
// identical collects (the direct view). On twin sim.Machine runs the
// scanner sees component 0 move twice between its collects and borrows
// the view that component's second Update embedded, which still holds
// the first Update's value.
func TestMergeIntoIsAScan(t *testing.T) {
	const n, scanner = 3, 1
	acc := []uint64{9, 3, 2}
	maxOf := func(view []uint64) []uint64 {
		want := slices.Clone(acc)
		for i, v := range view {
			want[i] = max(want[i], v)
		}
		return want
	}

	f := prim.NewFactory(n)
	s, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	s.Handle(f.Proc(0)).Update(12)
	s.Handle(f.Proc(2)).Update(7)
	h, p := s.Handle(f.Proc(scanner)), f.Proc(scanner)
	before := p.Steps()
	view := h.ScanInto(nil)
	scanSteps := p.Steps() - before
	before = p.Steps()
	got := h.MergeInto(slices.Clone(acc))
	if mergeSteps := p.Steps() - before; mergeSteps != scanSteps || mergeSteps != 2*n {
		t.Errorf("direct: MergeInto took %d steps, ScanInto %d, want %d each (two collects)", mergeSteps, scanSteps, 2*n)
	}
	if want := maxOf(view); !slices.Equal(got, want) {
		t.Errorf("direct: MergeInto(%v) = %v, want %v (the max with ScanInto's %v)", acc, got, want, view)
	}

	run := func(merge bool) ([]uint64, []prim.Event) {
		m := sim.NewMachine(n)
		s, err := New(m.Factory())
		if err != nil {
			t.Fatal(err)
		}
		hs := make([]*Handle, n)
		for i := range hs {
			hs[i] = s.Handle(m.Proc(i))
		}
		update := func(i int, v uint64) {
			m.Spawn(i, func(*prim.Proc) { hs[i].Update(v) })
			m.RunSolo(i, 100)
		}
		update(2, 7)
		var got []uint64
		m.Spawn(scanner, func(*prim.Proc) {
			if merge {
				got = hs[scanner].MergeInto(slices.Clone(acc))
			} else {
				got = hs[scanner].ScanInto(nil)
			}
		})
		m.StepN(scanner, n) // first collect
		update(0, 5)
		m.StepN(scanner, n) // second collect: component 0 moved once
		update(0, 6)
		m.StepN(scanner, n) // third collect: moved twice, borrow its view
		if m.Running(scanner) {
			t.Fatal("the scanner did not return after seeing component 0 move twice")
		}
		return got, m.TraceOf(scanner)
	}
	view, scanTrace := run(false)
	got, mergeTrace := run(true)
	if want := []uint64{5, 0, 7}; !slices.Equal(view, want) {
		t.Fatalf("gated ScanInto = %v, want the borrowed view %v", view, want)
	}
	if len(scanTrace) != 3*n || !reflect.DeepEqual(mergeTrace, scanTrace) {
		t.Errorf("borrowed: MergeInto took %d steps, ScanInto %d, want the same %d-step trace", len(mergeTrace), len(scanTrace), 3*n)
	}
	if want := maxOf(view); !slices.Equal(got, want) {
		t.Errorf("borrowed: MergeInto(%v) = %v, want %v (the max with ScanInto's %v)", acc, got, want, view)
	}
}
