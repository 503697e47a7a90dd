package prim

import (
	"unsafe"

	"approxobj/internal/telemetry"
)

// This file is the arena layer of the factory: row constructors that
// carve a known-shape row of base objects out of ONE backing allocation
// instead of one heap object per register. Two layouts:
//
//   - Padded rows (RegRow, TASRow, CASRegRow, RefRegRow, PairRegRow):
//     each element is padded to falseSharingStride bytes, so every
//     element owns its cache line(s) outright. This is the layout for
//     rows indexed by writer slot — counter collect/additive rows,
//     snapshot component registers, Morris exponent registers,
//     Algorithm 1's helping array — where adjacent elements belong to
//     DIFFERENT single writers and individually-allocated 16-byte
//     registers false-share lines across writers.
//
//   - Dense rows (RegRowDense): elements are packed at their natural
//     size with guard padding only at the row's ends, so the row is
//     isolated from neighboring heap objects but shares lines
//     internally. This is the layout for rows owned by ONE writer —
//     a histogram writer's per-process bucket vector — where internal
//     sharing is free (single writer) and per-element padding would
//     multiply the footprint by 8x (ruinous at 2^20 buckets).
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
// no difference between f.Regs(m) and f.RegRow(m).

// falseSharingStride is the padded-row element stride: two 64-byte
// cache lines (see the file comment for why not one).
const falseSharingStride = 128

type paddedReg struct {
	r Reg
	_ [falseSharingStride - unsafe.Sizeof(Reg{})]byte
}

type paddedTAS struct {
	t TAS
	_ [falseSharingStride - unsafe.Sizeof(TAS{})]byte
}

type paddedCASReg struct {
	r CASReg
	_ [falseSharingStride - unsafe.Sizeof(CASReg{})]byte
}

type paddedRefReg struct {
	r RefReg
	_ [falseSharingStride - unsafe.Sizeof(RefReg{})]byte
}

type paddedPairReg struct {
	r PairReg
	_ [falseSharingStride - unsafe.Sizeof(PairReg{})]byte
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

// TASRow creates m fresh test&set bits in one padded arena (see RegRow).
func (f *Factory) TASRow(m int) []*TAS {
	f.tel.Inc(telemetry.EvArenaRow, 0)
	cells := make([]paddedTAS, m)
	ts := make([]*TAS, m)
	for i := range cells {
		cells[i].t.id = f.allocID()
		ts[i] = &cells[i].t
	}
	return ts
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

// PairRegRow creates m fresh pair registers in one padded arena (see
// RegRow).
func (f *Factory) PairRegRow(m int) []*PairReg {
	f.tel.Inc(telemetry.EvArenaRow, 0)
	cells := make([]paddedPairReg, m)
	ps := make([]*PairReg, m)
	for i := range cells {
		cells[i].r.reg.id = f.allocID()
		ps[i] = &cells[i].r
	}
	return ps
}

// regGuard is the number of dense-row guard elements covering one
// falseSharingStride at each end of the row.
const regGuard = (falseSharingStride + int(unsafe.Sizeof(Reg{})) - 1) / int(unsafe.Sizeof(Reg{}))

// RegRowDense creates m fresh registers packed at natural size in one
// allocation, with one stride of never-touched guard registers at each
// end: the row shares no cache line with any neighboring heap object,
// but elements share lines with each other. Use for large rows owned by
// a single writer (per-process histogram bucket vectors), where
// internal sharing costs nothing and padded rows would be 8x the
// memory. The row is returned as the packed registers themselves (index
// it and take the element's address; capacity stops at m, so the guards
// stay out of reach), with no parallel slice of pointers to carry.
// Guard cells hold no IDs and are not resident — accounting covers
// exactly the m returned registers.
func (f *Factory) RegRowDense(m int) []Reg {
	f.tel.Inc(telemetry.EvArenaRow, 0)
	cells := make([]Reg, m+2*regGuard)
	row := cells[regGuard : regGuard+m : regGuard+m]
	for i := range row {
		row[i].id = f.allocID()
	}
	return row
}
