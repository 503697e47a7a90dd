package prim

import (
	"sync/atomic"
	"unsafe"

	"approxobj/internal/telemetry"
)

// This file is the arena layer of the factory: row constructors that
// carve a known-shape row of base objects out of ONE backing allocation
// instead of one heap object per register. Two layouts:
//
//   - Padded rows (RegRow, CASRegRow, RefRegRow, LazyPairRow):
//     each element is padded to falseSharingStride bytes, so every
//     element owns its cache line(s) outright. This is the layout for
//     rows indexed by writer slot — counter collect/additive rows,
//     snapshot component registers, Morris exponent registers,
//     Algorithm 1's helping array — where adjacent elements belong to
//     DIFFERENT single writers and individually-allocated 16-byte
//     registers false-share lines across writers. The helping array is
//     built by its first write (LazyPairRow): a counter no process has
//     announced on never holds one.
//
//   - Dense rows (LazyRegRow): elements are packed at their natural
//     size with guard padding only at the row's ends, so the row is
//     isolated from neighboring heap objects but shares lines
//     internally. This is the layout for rows owned by ONE writer —
//     a histogram writer's per-process bucket vector — where internal
//     sharing is free (single writer) and per-element padding would
//     multiply the footprint by 8x (ruinous at 2^20 buckets). A dense
//     row is built by its writer's first write: a slot that never
//     writes never holds one.
//
// The stride is 128 bytes — two 64-byte lines — for two reasons: the
// adjacent-line prefetcher on x86 pulls line pairs, so 64-byte spacing
// still ping-pongs under write sharing; and Go does not guarantee
// 64-byte alignment of allocations, while a 128-byte stride keeps two
// 16-byte element heads from ever landing on one line regardless of
// where the backing array starts.
//
// ID assignment and Resident() accounting are element-wise through
// allocID, identical to the one-object-per-allocation constructors, so
// replay determinism (internal/sim) and the paper's space measure see
// no difference between f.Regs(m) and f.RegRow(m). A lazy row
// (LazyRegRow, LazyPairRow) reserves its IDs when it is created and
// counts in Resident() once it is built.

// falseSharingStride is the padded-row element stride: two 64-byte
// cache lines (see the file comment for why not one).
const falseSharingStride = 128

type paddedReg struct {
	r Reg
	_ [falseSharingStride - unsafe.Sizeof(Reg{})]byte
}

type paddedCASReg struct {
	r CASReg
	_ [falseSharingStride - unsafe.Sizeof(CASReg{})]byte
}

type paddedRefReg struct {
	r RefReg
	_ [falseSharingStride - unsafe.Sizeof(RefReg{})]byte
}

// RegRow creates m fresh registers carved out of one padded arena: the
// row costs one allocation and element i's hot word is at least a
// falseSharingStride away from element i±1's, so per-slot writers never
// false-share. Drop-in for Regs(m) where the row shape is known up
// front; IDs and Resident() accounting are identical.
func (f *Factory) RegRow(m int) []*Reg {
	f.tel.Inc(telemetry.EvArenaRow, 0)
	cells := make([]paddedReg, m)
	rs := make([]*Reg, m)
	for i := range cells {
		cells[i].r.id = f.allocID()
		rs[i] = &cells[i].r
	}
	return rs
}

// CASRegRow creates m fresh CAS registers in one padded arena (see
// RegRow).
func (f *Factory) CASRegRow(m int) []*CASReg {
	f.tel.Inc(telemetry.EvArenaRow, 0)
	cells := make([]paddedCASReg, m)
	rs := make([]*CASReg, m)
	for i := range cells {
		cells[i].r.id = f.allocID()
		rs[i] = &cells[i].r
	}
	return rs
}

// PaddedCASReg creates one CAS register owning its cache lines — a
// 1-element CASRegRow. This is the layout for standalone hot registers
// (the Morris exponent register: every shard's whole state is one CAS
// word, so two shards' registers allocated back-to-back would serialize
// on one line).
func (f *Factory) PaddedCASReg() *CASReg {
	return f.CASRegRow(1)[0]
}

// RefRegRow creates m fresh reference registers in one padded arena
// (see RegRow). RefReg holds an atomic.Value, so the arena is a typed
// array — the collector sees the stored pointers exactly as with
// individual allocations.
func (f *Factory) RefRegRow(m int) []*RefReg {
	f.tel.Inc(telemetry.EvArenaRow, 0)
	cells := make([]paddedRefReg, m)
	rs := make([]*RefReg, m)
	for i := range cells {
		cells[i].r.id = f.allocID()
		rs[i] = &cells[i].r
	}
	return rs
}

// LazyPairRow is a padded row of m pair registers, all initially
// (0, 0), whose storage is built by its first write: Algorithm 1's
// helping array H[i] = (val, sn), where register i has one writer,
// process i. A pair is packed into one uint64 register (PackPair), so
// one step reads or writes both components, as the paper's pseudocode
// assumes. The row's IDs are reserved when it is created, so every
// register keeps the ID an eagerly built row would give it; building
// is local memory management, not a step, and the row's m registers
// count in Resident once its publishing CAS wins. A built row has
// RegRow's padded layout, one falseSharingStride per register, since
// adjacent registers belong to different writers.
//
// Reading a register of an unbuilt row returns (0, 0) and counts one
// step. The row is resolved inside the step, as in LazyRegRow.Read.
type LazyPairRow struct {
	base  ObjID
	m     int
	f     *Factory                  // the root factory: Resident and telemetry
	cells atomic.Pointer[paddedReg] // register 0 of the built row; nil until built
}

// LazyPairRow creates a row of m pair registers (see LazyPairRow),
// reserving their m IDs in order; it holds no storage until its first
// write.
func (f *Factory) LazyPairRow(m int) *LazyPairRow {
	return &LazyPairRow{base: f.allocBlock(uint64(m)), m: m, f: f.origin()}
}

// build returns the row's cells, building the row if no writer has yet:
// it is allocated in the padded layout and published with a CAS, and
// only the winning copy counts in Resident (and as an arena row in
// telemetry), so racing writers all write the same registers.
func (r *LazyPairRow) build() []paddedReg {
	if c := r.cells.Load(); c != nil {
		return unsafe.Slice(c, r.m)
	}
	cells := make([]paddedReg, r.m)
	for i := range cells {
		cells[i].r.id = r.base + ObjID(i)
	}
	if r.cells.CompareAndSwap(nil, &cells[0]) {
		r.f.resident.Add(uint64(r.m))
		r.f.tel.Inc(telemetry.EvArenaRow, 0)
		return cells
	}
	return unsafe.Slice(r.cells.Load(), r.m)
}

// Write atomically writes the pair (val, sn) to register i, building
// the row first if it is not built.
func (r *LazyPairRow) Write(p *Proc, i int, val, sn uint32) {
	r.build()[i].r.Write(p, PackPair(val, sn))
}

// Read atomically reads the pair in register i. The row is resolved
// inside the step's enter/exit window: a gated process may park at the
// gate while the row is built and written, and must observe that
// write. A register of an unbuilt row reads (0, 0).
func (r *LazyPairRow) Read(p *Proc, i int) (val, sn uint32) {
	if uint(i) >= uint(r.m) {
		panic("prim: LazyPairRow index out of range")
	}
	p.enter()
	var v uint64
	if c := r.cells.Load(); c != nil {
		v = unsafe.Slice(c, r.m)[i].r.v.Load()
	}
	p.exit(OpRead, r.base+ObjID(i), v)
	return UnpackPair(v)
}

// ID returns the base-object identifier of register i.
func (r *LazyPairRow) ID(i int) ObjID { return r.base + ObjID(i) }

// PackPair packs (val, sn) into the uint64 wire format of a LazyPairRow
// register.
func PackPair(val, sn uint32) uint64 { return uint64(val)<<32 | uint64(sn) }

// UnpackPair is the inverse of PackPair.
func UnpackPair(x uint64) (val, sn uint32) {
	return uint32(x >> 32), uint32(x)
}

// regGuard is the number of dense-row guard elements covering one
// falseSharingStride at each end of the row.
const regGuard = (falseSharingStride + int(unsafe.Sizeof(Reg{})) - 1) / int(unsafe.Sizeof(Reg{}))

// LazyRegRow is a dense row of m registers, all initially 0, whose
// storage is built by its first write. Its IDs are reserved when the row
// is created, so every register keeps the ID an eagerly built row would
// give it. Building is local memory management, not a step; the row's m
// registers count in Resident once its publishing CAS wins.
//
// A built row is m registers packed at natural size in one allocation,
// with one stride of never-touched guard registers at each end: the row
// shares no cache line with any neighboring heap object, but elements
// share lines with each other. Use it for large rows owned by a single
// writer (per-process histogram bucket vectors), where internal sharing
// costs nothing and padded rows would be 8x the memory, and where most
// rows are never written. Guard cells hold no IDs and are not resident.
//
// Reading an unbuilt row follows the TASSeq.Read rule: every register
// reads 0 and still counts one step (see ReadUnbuilt).
type LazyRegRow struct {
	base  ObjID
	m     int
	f     *Factory            // the root factory: Resident and telemetry
	cells atomic.Pointer[Reg] // register 0 of the built row; nil until built
}

// LazyRegRows creates n dense rows of m registers each (see LazyRegRow).
// Each row reserves its block of m IDs in order, so row i's registers
// get the IDs the i-th of n eager rows would get; no row holds storage
// until it is built.
func (f *Factory) LazyRegRows(n, m int) []LazyRegRow {
	rows := make([]LazyRegRow, n)
	for i := range rows {
		rows[i].base = f.allocBlock(uint64(m))
		rows[i].m = m
		rows[i].f = f.origin()
	}
	return rows
}

// Build returns the row's registers, building the row if no caller has
// yet: it is allocated in the guarded dense layout and published with a
// CAS, and only the winning copy counts in Resident (and as an arena row
// in telemetry), so racing builders all get the same registers. A writer
// calls it before its first write and keeps the result: index it and
// take the element's address (its capacity stops at m, so the guards
// stay out of reach).
func (r *LazyRegRow) Build() []Reg {
	if row := r.Row(); row != nil {
		return row
	}
	cells := make([]Reg, r.m+2*regGuard)
	row := cells[regGuard : regGuard+r.m : regGuard+r.m]
	for i := range row {
		row[i].id = r.base + ObjID(i)
	}
	if r.cells.CompareAndSwap(nil, &cells[regGuard]) {
		r.f.resident.Add(uint64(r.m))
		r.f.tel.Inc(telemetry.EvArenaRow, 0)
		return row
	}
	return r.Row()
}

// Row returns the row's registers once it is built, else nil. It takes
// no step.
func (r *LazyRegRow) Row() []Reg {
	if c := r.cells.Load(); c != nil {
		return unsafe.Slice(c, r.m)
	}
	return nil
}

// Read applies a read primitive to register i. The row is resolved
// inside the step's enter/exit window, as in TASSeq.Read: a gated
// process may park at the gate while the row is built and written, and
// must observe that write. A register of an unbuilt row reads 0.
func (r *LazyRegRow) Read(p *Proc, i int) uint64 {
	if uint(i) >= uint(r.m) {
		panic("prim: LazyRegRow index out of range")
	}
	p.enter()
	var v uint64
	if c := r.cells.Load(); c != nil {
		v = unsafe.Slice(c, r.m)[i].v.Load()
	}
	p.exit(OpRead, r.base+ObjID(i), v)
	return v
}

// ReadUnbuilt applies p's reads of all m registers of a row that Row
// found unbuilt, by Proc.ReadUnbuilt's rule: in production mode they
// cost m steps and no loads, and ReadUnbuilt reports true; a gated
// process takes no step here and must read register by register through
// Read, since the row may be built and written while it waits at a
// gate.
func (r *LazyRegRow) ReadUnbuilt(p *Proc) bool { return p.ReadUnbuilt(r.m) }

// ID returns the base-object identifier of register i.
func (r *LazyRegRow) ID(i int) ObjID { return r.base + ObjID(i) }
