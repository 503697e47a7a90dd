package prim

import (
	"math/bits"
	"sync/atomic"
)

// tasSeqLevels bounds the number of doubling levels in a TASSeq. Level ℓ
// holds 2^ℓ bits covering indices [2^ℓ-1, 2^(ℓ+1)-1), so 64 levels cover
// every uint64 index that can arise in practice.
const tasSeqLevels = 64

// TASSeq is an unbounded sequence of test&set bits switch_0, switch_1, ...,
// all initially 0, as required by Algorithm 1 of the paper. Storage is
// allocated lazily in doubling levels published with a CAS; allocation is
// local memory management, not a step of the model, so the step complexity
// of TestAndSet and Read is exactly one primitive application.
//
// Each bit behaves exactly like a TAS base object: test&set sets it to 1 and
// returns the previous value; read returns the current value. Reading an
// index whose level has not been allocated returns 0 (the initial value)
// while still counting one step, as the model demands.
type TASSeq struct {
	base   ObjID
	gate   Gate
	res    *atomic.Uint64 // the root factory's resident-object counter
	levels [tasSeqLevels]atomic.Pointer[[]atomic.Uint32]
}

// TASSeq creates a fresh unbounded switch sequence. It reserves a contiguous
// block of 2^32 object IDs so every switch has a stable identifier across
// replays; the switches count as resident (Factory.Resident) level by
// level as their storage materializes.
func (f *Factory) TASSeq() *TASSeq {
	return &TASSeq{base: f.allocBlock(1 << 32), gate: f.gate, res: &f.origin().resident}
}

// level returns the level index and offset within it for bit index i.
// Level ℓ starts at global index 2^ℓ - 1 and holds 2^ℓ bits.
func tasSeqSlot(i uint64) (level int, off uint64) {
	// Index i+1 has bit-length b => level b-1, offset i+1-2^(b-1).
	b := bits.Len64(i + 1)
	level = b - 1
	off = (i + 1) - (uint64(1) << uint(level))
	return level, off
}

// slot returns the atomic cell for bit i, allocating its level if needed.
func (s *TASSeq) slot(i uint64) *atomic.Uint32 {
	level, off := tasSeqSlot(i)
	lp := s.levels[level].Load()
	if lp == nil {
		fresh := make([]atomic.Uint32, uint64(1)<<uint(level))
		if s.levels[level].CompareAndSwap(nil, &fresh) {
			lp = &fresh
			s.res.Add(uint64(1) << uint(level))
		} else {
			lp = s.levels[level].Load()
		}
	}
	return &(*lp)[off]
}

// peek returns the cell for bit i if its level is allocated, else nil.
func (s *TASSeq) peek(i uint64) *atomic.Uint32 {
	level, off := tasSeqSlot(i)
	lp := s.levels[level].Load()
	if lp == nil {
		return nil
	}
	return &(*lp)[off]
}

// objID returns the stable base-object identifier of switch i.
func (s *TASSeq) objID(i uint64) ObjID { return s.base + ObjID(i) }

// TestAndSet applies test&set to switch_i, returning true iff the caller
// changed it from 0 to 1.
func (s *TASSeq) TestAndSet(p *Proc, i uint64) bool {
	cell := s.slot(i)
	p.enter()
	old := cell.Swap(1)
	p.exit(OpTAS, s.objID(i), uint64(old))
	return old == 0
}

// Read applies a read primitive to switch_i. The cell is resolved inside
// the enter/exit window: a gated process may park at the gate before the
// switch's level is allocated, and must still observe values written while
// it waited.
func (s *TASSeq) Read(p *Proc, i uint64) uint64 {
	p.enter()
	var v uint64
	if cell := s.peek(i); cell != nil {
		v = uint64(cell.Load())
	}
	p.exit(OpRead, s.objID(i), v)
	return v
}

// Set reports whether switch_i is 1, applying one read primitive.
func (s *TASSeq) Set(p *Proc, i uint64) bool { return s.Read(p, i) == 1 }

// Peek returns switch_i without taking a model step (diagnostic; see
// Reg.Peek).
func (s *TASSeq) Peek(i uint64) uint64 {
	if cell := s.peek(i); cell != nil {
		return uint64(cell.Load())
	}
	return 0
}

// PairReg is a register holding a pair of 32-bit values that is read and
// written atomically, used for Algorithm 1's helping array H[i] = (val, sn).
// The pair is packed into a single uint64 base object so one step reads or
// writes both components, as the paper's pseudocode assumes.
type PairReg struct {
	reg Reg
}

// PairReg creates a fresh pair register initialized to (0, 0).
func (f *Factory) PairReg() *PairReg {
	return &PairReg{reg: Reg{id: f.allocID()}}
}

// PairRegs creates a slice of m fresh pair registers.
func (f *Factory) PairRegs(m int) []*PairReg {
	ps := make([]*PairReg, m)
	for i := range ps {
		ps[i] = f.PairReg()
	}
	return ps
}

// PackPair packs (val, sn) into the uint64 wire format of a PairReg.
func PackPair(val, sn uint32) uint64 { return uint64(val)<<32 | uint64(sn) }

// UnpackPair is the inverse of PackPair.
func UnpackPair(x uint64) (val, sn uint32) {
	return uint32(x >> 32), uint32(x)
}

// Read atomically reads the pair.
func (r *PairReg) Read(p *Proc) (val, sn uint32) {
	return UnpackPair(r.reg.Read(p))
}

// Write atomically writes the pair.
func (r *PairReg) Write(p *Proc, val, sn uint32) {
	r.reg.Write(p, PackPair(val, sn))
}

// ID returns the base-object identifier.
func (r *PairReg) ID() ObjID { return r.reg.id }
