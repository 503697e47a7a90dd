package prim

import (
	"sync"
	"testing"
	"unsafe"
)

// TestPaddedRowStride checks the padded rows' core property: consecutive
// elements' hot heads are exactly one falseSharingStride apart, so no
// two elements share a cache line pair regardless of base alignment.
func TestPaddedRowStride(t *testing.T) {
	f := NewFactory(2)
	regs := f.RegRow(8)
	for i := 1; i < len(regs); i++ {
		d := uintptr(unsafe.Pointer(regs[i])) - uintptr(unsafe.Pointer(regs[i-1]))
		if d != falseSharingStride {
			t.Fatalf("RegRow stride between %d and %d: got %d bytes, want %d", i-1, i, d, falseSharingStride)
		}
	}
	cas := f.CASRegRow(4)
	for i := 1; i < len(cas); i++ {
		d := uintptr(unsafe.Pointer(cas[i])) - uintptr(unsafe.Pointer(cas[i-1]))
		if d != falseSharingStride {
			t.Fatalf("CASRegRow stride: got %d bytes, want %d", d, falseSharingStride)
		}
	}
	refs := f.RefRegRow(4)
	for i := 1; i < len(refs); i++ {
		d := uintptr(unsafe.Pointer(refs[i])) - uintptr(unsafe.Pointer(refs[i-1]))
		if d != falseSharingStride {
			t.Fatalf("RefRegRow stride: got %d bytes, want %d", d, falseSharingStride)
		}
	}
	pairs := f.LazyPairRow(4).build()
	for i := 1; i < len(pairs); i++ {
		d := uintptr(unsafe.Pointer(&pairs[i].r)) - uintptr(unsafe.Pointer(&pairs[i-1].r))
		if d != falseSharingStride {
			t.Fatalf("LazyPairRow stride: got %d bytes, want %d", d, falseSharingStride)
		}
	}
}

// TestRowIDsAndResident checks arena rows are drop-in for the
// one-object-per-allocation constructors: IDs follow creation order and
// Resident counts exactly the returned objects.
func TestRowIDsAndResident(t *testing.T) {
	a, b := NewFactory(1), NewFactory(1)
	ra, rb := a.Regs(5), b.RegRow(5)
	for i := range ra {
		if ra[i].ID() != rb[i].ID() {
			t.Fatalf("RegRow ID at %d: got %d, want %d", i, rb[i].ID(), ra[i].ID())
		}
	}
	if a.Resident() != b.Resident() || a.Objects() != b.Objects() {
		t.Fatalf("RegRow accounting: resident %d/%d objects %d/%d", a.Resident(), b.Resident(), a.Objects(), b.Objects())
	}
}

// TestLazyRowIDsAndResident checks lazy dense rows keep the IDs eager
// rows created in the same order get, reserve them at creation, and
// count in Resident only once built: reads of an unbuilt row build
// nothing, and the first write's build adds exactly m. A row created on
// a Stage view counts in the root factory when built, like the other
// cells that materialize inside a published structure.
func TestLazyRowIDsAndResident(t *testing.T) {
	const n, m = 3, 7
	eager, lazy := NewFactory(1), NewFactory(1)
	eager.Reg() // the rows start after an existing object
	lazy.Reg()
	want := make([][]*Reg, n)
	for i := range want {
		want[i] = eager.Regs(m)
	}
	objects, resident := lazy.Objects(), lazy.Resident()
	rows := lazy.LazyRegRows(n, m)
	if got := lazy.Objects() - objects; got != n*m {
		t.Fatalf("creating %d rows of %d advanced Objects by %d, want %d", n, m, got, n*m)
	}
	p := lazy.Proc(0)
	for i := range rows {
		for b := 0; b < m; b++ {
			if got := rows[i].ID(b); got != want[i][b].ID() {
				t.Fatalf("row %d register %d: ID %d, want the eager row's %d", i, b, got, want[i][b].ID())
			}
			if v := rows[i].Read(p, b); v != 0 {
				t.Fatalf("row %d register %d of an unbuilt row read %d, want 0", i, b, v)
			}
		}
		if !rows[i].ReadUnbuilt(p) || rows[i].Row() != nil {
			t.Fatalf("row %d: ReadUnbuilt refused a production proc, or a read built the row", i)
		}
	}
	if got := lazy.Resident(); got != resident {
		t.Fatalf("unbuilt rows: Resident %d, want %d (reads must build nothing)", got, resident)
	}
	if got := p.Steps(); got != 2*n*m {
		t.Fatalf("reads of unbuilt rows took %d steps, want %d (one per register, per read)", got, 2*n*m)
	}

	row := rows[1].Build()
	row[3].Write(p, 9)
	if got := lazy.Resident() - resident; got != m {
		t.Fatalf("first write: Resident grew by %d, want %d", got, m)
	}
	if lazy.Objects()-objects != n*m {
		t.Fatal("building a row allocated IDs")
	}
	for b := range row {
		if row[b].ID() != want[1][b].ID() {
			t.Fatalf("built register %d: ID %d, want %d", b, row[b].ID(), want[1][b].ID())
		}
	}
	if again := rows[1].Build(); &again[0] != &row[0] || lazy.Resident()-resident != m {
		t.Fatal("a second Build rebuilt the row or counted it twice")
	}
	if v := rows[1].Read(p, 3); v != 9 {
		t.Fatalf("Read of the written register: %d, want 9", v)
	}

	s := lazy.Stage()
	staged := s.LazyRegRows(1, m)
	before := lazy.Resident()
	staged[0].Build()
	if s.Resident() != 0 || lazy.Resident()-before != m {
		t.Fatalf("staged row: view Resident %d, root grew by %d; want 0 and %d", s.Resident(), lazy.Resident()-before, m)
	}
}

// TestLazyRowBuildRace has goroutines race to build one row and write
// their own register of it. Exactly one copy may be published: every
// goroutine must get the same registers, every write must land in them,
// and Resident must count the row once. Run with -race, it also checks
// the publishing CAS against concurrent loads.
func TestLazyRowBuildRace(t *testing.T) {
	const n, m, trials = 8, 65, 200
	for trial := 0; trial < trials; trial++ {
		f := NewFactory(n)
		r := &f.LazyRegRows(1, m)[0]
		got := make([]*Reg, n)
		var ready, done sync.WaitGroup
		start := make(chan struct{})
		ready.Add(n)
		done.Add(n)
		for i := 0; i < n; i++ {
			go func() {
				defer done.Done()
				ready.Done()
				<-start
				row := r.Build()
				row[i].Write(f.Proc(i), uint64(i+1))
				got[i] = &row[0]
			}()
		}
		ready.Wait()
		close(start)
		done.Wait()
		if res := f.Resident(); res != m {
			t.Fatalf("trial %d: Resident %d, want %d (a losing copy was counted)", trial, res, m)
		}
		for i := 0; i < n; i++ {
			if got[i] != got[0] {
				t.Fatalf("trial %d: goroutine %d got another row", trial, i)
			}
			if v := r.Read(f.Proc(0), i); v != uint64(i+1) {
				t.Fatalf("trial %d: register %d reads %d, want %d (a write went to a losing copy)", trial, i, v, i+1)
			}
		}
	}
}

// recordGate is a Gate that lets every step through and records its
// events.
type recordGate struct{ evs []Event }

func (g *recordGate) Enter(*Proc)               {}
func (g *recordGate) Exit(_ *Proc, evs []Event) { g.evs = append(g.evs, evs...) }

// parkGate parks process 0 at its next Enter until release is closed,
// signalling parked first, and lets every other process through.
type parkGate struct{ parked, release chan struct{} }

func (g *parkGate) Enter(p *Proc) {
	if p.ID() == 0 {
		g.parked <- struct{}{}
		<-g.release
	}
}

func (g *parkGate) Exit(*Proc, []Event) {}

// TestLazyRowGatedReads checks the model view of an unbuilt row: a gated
// read takes one step per register, each an OpRead of the register's
// reserved ID observing 0, and a reader parked at its gate while the row
// is built and written observes the write — the row is resolved inside
// the step, not before it.
func TestLazyRowGatedReads(t *testing.T) {
	const m = 5
	g := &recordGate{}
	f := NewGatedFactory(1, g)
	rows := f.LazyRegRows(2, m)
	p := f.Proc(0)
	if rows[1].ReadUnbuilt(p) || p.Steps() != 0 {
		t.Fatal("ReadUnbuilt charged a gated proc: its reads must each be a step")
	}
	for b := 0; b < m; b++ {
		rows[1].Read(p, b)
	}
	if len(g.evs) != m {
		t.Fatalf("gated read of an unbuilt row emitted %d events, want %d", len(g.evs), m)
	}
	for b, ev := range g.evs {
		want := Event{Proc: 0, Op: OpRead, Obj: rows[1].ID(b), Val: 0}
		if ev != want {
			t.Fatalf("event %d: %+v, want %+v", b, ev, want)
		}
	}
	if rows[1].ID(0) != rows[0].ID(m-1)+1 {
		t.Fatalf("row 1 starts at ID %d, want %d (right after row 0's block)", rows[1].ID(0), rows[0].ID(m-1)+1)
	}

	pg := &parkGate{parked: make(chan struct{}), release: make(chan struct{})}
	pf := NewGatedFactory(2, pg)
	r := &pf.LazyRegRows(1, m)[0]
	got := make(chan uint64)
	go func() { got <- r.Read(pf.Proc(0), 3) }()
	<-pg.parked // the reader is inside its step, the row still unbuilt
	r.Build()[3].Write(pf.Proc(1), 7)
	close(pg.release)
	if v := <-got; v != 7 {
		t.Fatalf("reader parked while the row was built and written read %d, want 7", v)
	}
}

// TestLazyPairRowIDsAndResident checks the helping row's lazy contract:
// its IDs are the ones an eager padded row created in the same order
// gets, reserved at creation; reads of an unbuilt row return (0, 0),
// count one step each and build nothing; and the first write builds the
// row and counts its m registers in Resident once.
func TestLazyPairRowIDsAndResident(t *testing.T) {
	const m = 5
	eager, lazy := NewFactory(1), NewFactory(1)
	eager.Reg() // the row starts after an existing object
	lazy.Reg()
	want := eager.RegRow(m)
	objects, resident := lazy.Objects(), lazy.Resident()
	r := lazy.LazyPairRow(m)
	if got := lazy.Objects() - objects; got != m {
		t.Fatalf("creating a row of %d advanced Objects by %d, want %d", m, got, m)
	}
	p := lazy.Proc(0)
	for i := 0; i < m; i++ {
		if got := r.ID(i); got != want[i].ID() {
			t.Fatalf("register %d: ID %d, want the eager row's %d", i, got, want[i].ID())
		}
		if val, sn := r.Read(p, i); val != 0 || sn != 0 {
			t.Fatalf("register %d of an unbuilt row read (%d, %d), want (0, 0)", i, val, sn)
		}
	}
	if r.cells.Load() != nil || lazy.Resident() != resident || p.Steps() != m {
		t.Fatalf("reads of an unbuilt row: built %v, Resident +%d, %d steps; want unbuilt, +0, %d",
			r.cells.Load() != nil, lazy.Resident()-resident, p.Steps(), m)
	}

	r.Write(p, 3, 123, 456)
	if got := lazy.Resident() - resident; got != m {
		t.Fatalf("first write: Resident grew by %d, want %d", got, m)
	}
	r.Write(p, 1, 7, 8)
	if got := lazy.Resident() - resident; got != m || lazy.Objects()-objects != m {
		t.Fatalf("second write: Resident +%d, Objects +%d; want %d and %d (the row is built once, IDs reserved once)",
			got, lazy.Objects()-objects, m, m)
	}
	for i, cells := 0, r.build(); i < m; i++ {
		if got := cells[i].r.ID(); got != want[i].ID() {
			t.Fatalf("built register %d: ID %d, want %d", i, got, want[i].ID())
		}
	}
	if val, sn := r.Read(p, 3); val != 123 || sn != 456 {
		t.Fatalf("register 3 reads (%d, %d), want (123, 456)", val, sn)
	}
}

// TestLazyPairRowBuildRace has every process make its first write to its
// own register of one fresh helping row at once. Exactly one copy of the
// row may be published: every write must land in it, its registers must
// keep their reserved IDs, and Resident must count it once. Run with
// -race, it also checks the publishing CAS against concurrent loads.
func TestLazyPairRowBuildRace(t *testing.T) {
	const n, trials = 8, 200
	for trial := 0; trial < trials; trial++ {
		f := NewFactory(n)
		r := f.LazyPairRow(n)
		var ready, done sync.WaitGroup
		start := make(chan struct{})
		ready.Add(n)
		done.Add(n)
		for i := 0; i < n; i++ {
			go func() {
				defer done.Done()
				ready.Done()
				<-start
				r.Write(f.Proc(i), i, uint32(i+1), uint32(trial))
			}()
		}
		ready.Wait()
		close(start)
		done.Wait()
		if res := f.Resident(); res != n {
			t.Fatalf("trial %d: Resident %d, want %d (a losing copy was counted)", trial, res, n)
		}
		for i, cells := 0, r.build(); i < n; i++ {
			if got := cells[i].r.ID(); got != ObjID(i) {
				t.Fatalf("trial %d: register %d has ID %d, want %d", trial, i, got, i)
			}
			if val, sn := r.Read(f.Proc(0), i); val != uint32(i+1) || sn != uint32(trial) {
				t.Fatalf("trial %d: register %d reads (%d, %d), want (%d, %d) (a write went to a losing copy)",
					trial, i, val, sn, i+1, trial)
			}
		}
	}
}

// TestLazyPairRowGatedReads checks the model view of an unbuilt helping
// row: a gated read is one OpRead step of the register's reserved ID
// observing 0, and a reader parked at its gate while the row is built
// and written observes the write — the row is resolved inside the step.
func TestLazyPairRowGatedReads(t *testing.T) {
	g := &recordGate{}
	f := NewGatedFactory(1, g)
	r := f.LazyPairRow(3)
	r.Read(f.Proc(0), 2)
	if want := (Event{Proc: 0, Op: OpRead, Obj: r.ID(2)}); len(g.evs) != 1 || g.evs[0] != want {
		t.Fatalf("gated read of an unbuilt row emitted %+v, want [%+v]", g.evs, want)
	}

	pg := &parkGate{parked: make(chan struct{}), release: make(chan struct{})}
	pf := NewGatedFactory(2, pg)
	pr := pf.LazyPairRow(2)
	got := make(chan [2]uint32)
	go func() {
		val, sn := pr.Read(pf.Proc(0), 1)
		got <- [2]uint32{val, sn}
	}()
	<-pg.parked // the reader is inside its step, the row still unbuilt
	pr.Write(pf.Proc(1), 1, 7, 3)
	close(pg.release)
	if v := <-got; v != [2]uint32{7, 3} {
		t.Fatalf("reader parked while the row was built and written read %v, want [7 3]", v)
	}
}

// TestLazyRowLayout checks a built row's dense layout: elements packed
// at their natural 16-byte size, capacity m so the guards stay out of
// reach, and a full stride of never-touched guard cells at each end.
func TestLazyRowLayout(t *testing.T) {
	const m = 16
	f := NewFactory(1)
	p := f.Proc(0)
	row := f.LazyRegRows(1, m)[0].Build()
	size := unsafe.Sizeof(Reg{})
	if size != 16 || len(row) != m || cap(row) != m {
		t.Fatalf("row: element size %d, len %d, cap %d; want 16, %d, %d", size, len(row), cap(row), m, m)
	}
	for i := 1; i < len(row); i++ {
		if d := uintptr(unsafe.Pointer(&row[i])) - uintptr(unsafe.Pointer(&row[i-1])); d != size {
			t.Fatalf("stride between %d and %d: %d bytes, want %d", i-1, i, d, size)
		}
	}
	for i := range row {
		row[i].Write(p, ^uint64(0))
	}
	if regGuard*int(size) < falseSharingStride {
		t.Fatalf("guard covers %d bytes, want at least a %d-byte stride", regGuard*int(size), falseSharingStride)
	}
	start := (*Reg)(unsafe.Add(unsafe.Pointer(&row[0]), -regGuard*int(size)))
	all := unsafe.Slice(start, m+2*regGuard)
	for i := 0; i < regGuard; i++ {
		for _, g := range []*Reg{&all[i], &all[m+regGuard+i]} {
			if g.id != 0 || g.v.Load() != 0 {
				t.Fatalf("guard cell touched: id %d, value %d", g.id, g.v.Load())
			}
		}
	}
}

// TestRowObjectsBehave checks row-allocated objects behave like
// individually allocated ones across every row constructor.
func TestRowObjectsBehave(t *testing.T) {
	f := NewFactory(1)
	p := f.Proc(0)

	regs := f.RegRow(3)
	regs[1].Write(p, 42)
	if regs[0].Read(p) != 0 || regs[1].Read(p) != 42 || regs[2].Read(p) != 0 {
		t.Fatal("RegRow write leaked into a neighbor or was lost")
	}

	cas := f.PaddedCASReg()
	if obs, ok := cas.CompareAndSwap(p, 0, 9); !ok || obs != 0 {
		t.Fatalf("PaddedCASReg CAS: got (%d, %v), want (0, true)", obs, ok)
	}
	if cas.Read(p) != 9 {
		t.Fatal("PaddedCASReg lost its CAS")
	}

	refs := f.RefRegRow(2)
	refs[0].Write(p, "x")
	if refs[0].Read(p) != "x" || refs[1].Read(p) != nil {
		t.Fatal("RefRegRow write leaked or was lost")
	}

	steps := p.Steps()
	if steps == 0 {
		t.Fatal("row-allocated primitives did not count steps")
	}
}
