package prim

import (
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
	tass := f.TASRow(8)
	for i := 1; i < len(tass); i++ {
		d := uintptr(unsafe.Pointer(tass[i])) - uintptr(unsafe.Pointer(tass[i-1]))
		if d != falseSharingStride {
			t.Fatalf("TASRow stride: got %d bytes, want %d", d, falseSharingStride)
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
	pairs := f.PairRegRow(4)
	for i := 1; i < len(pairs); i++ {
		d := uintptr(unsafe.Pointer(pairs[i])) - uintptr(unsafe.Pointer(pairs[i-1]))
		if d != falseSharingStride {
			t.Fatalf("PairRegRow stride: got %d bytes, want %d", d, falseSharingStride)
		}
	}
}

// TestDenseRowLayout checks RegRowDense packs elements at natural size
// (no internal padding — the point of the dense layout).
func TestDenseRowLayout(t *testing.T) {
	f := NewFactory(1)
	regs := f.RegRowDense(16)
	want := unsafe.Sizeof(Reg{})
	for i := 1; i < len(regs); i++ {
		d := uintptr(unsafe.Pointer(&regs[i])) - uintptr(unsafe.Pointer(&regs[i-1]))
		if d != want {
			t.Fatalf("RegRowDense stride: got %d bytes, want %d", d, want)
		}
	}
}

// TestRowIDsAndResident checks arena rows are drop-in for the
// one-object-per-allocation constructors: IDs follow creation order and
// Resident counts exactly the returned objects (guard cells are free).
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
	before := b.Resident()
	dense := b.RegRowDense(7)
	if got := b.Resident() - before; got != 7 {
		t.Fatalf("RegRowDense resident delta: got %d, want 7 (guards must be free)", got)
	}
	if dense[0].ID() != ObjID(5) || dense[6].ID() != ObjID(11) {
		t.Fatalf("RegRowDense IDs: got %d..%d, want 5..11", dense[0].ID(), dense[6].ID())
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

	tass := f.TASRow(2)
	if !tass[0].TestAndSet(p) || tass[0].TestAndSet(p) {
		t.Fatal("TASRow bit did not behave as test&set")
	}
	if tass[1].Read(p) != 0 {
		t.Fatal("TASRow neighbor bit flipped")
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
