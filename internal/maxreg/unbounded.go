package maxreg

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"approxobj/internal/object"
	"approxobj/internal/prim"
)

// BoundedMaxReg is the plug-in point of the unbounded construction: any
// linearizable bounded max register (the exact tree of this package, or the
// k-multiplicative-accurate register of internal/core) can back each epoch.
type BoundedMaxReg interface {
	Write(p *prim.Proc, v uint64)
	Read(p *prim.Proc) uint64
}

// BoundedFactory builds a bounded max register for the domain {0..size-1}.
type BoundedFactory func(f *prim.Factory, size uint64) (BoundedMaxReg, error)

// ExactFactory builds the exact tree-based register of this package.
func ExactFactory(f *prim.Factory, size uint64) (BoundedMaxReg, error) {
	return NewBounded(f, size)
}

// maxEpochs covers every uint64 value: epoch e holds values in
// [2^e, 2^(e+1)).
const maxEpochs = 64

// Unbounded lifts a bounded max register to the full uint64 domain,
// realizing the "plug-in" extension the paper sketches via Baig et al. [9]
// (whose exact construction is not reproduced in the paper's text; the
// epoch split below substitutes for it).
//
// Values are split into epochs by bit length: epoch e stores offsets
// v - 2^e of values v in [2^e, 2^(e+1)) in a bounded register of size 2^e.
// A small *exact* bounded max register T (domain {0..64}) tracks 1 + the
// highest epoch ever written; T is written after the epoch register, so a
// reader that sees T = e+1 finds a value of at least 2^e already present in
// epoch e. Reads return 2^e + R_e.Read() for e = T.Read()-1, which
// dominates every write completed before the read began: smaller-epoch
// values are below 2^e, same-epoch values are dominated by the epoch
// register's own max semantics.
//
// Step complexity per operation: O(log 64) for T plus one bounded-register
// operation on an epoch of size 2^e, i.e. O(log v) with the exact plug-in
// and O(log2 log_k v) with the k-multiplicative plug-in — the
// sub-logarithmic behaviour measured in experiment E8.
//
// Epoch registers are built lazily: the first operation that reaches
// epoch e builds R_e on a Stage view of the factory and publishes it with
// a CAS, as TASSeq publishes its levels, and only the winner's registers
// count in Resident. The epoch table (64 epoch pointers) is itself built
// by the first install and published with one CAS, so a fresh register
// holds only T's root and no table, and a workload pays for the epochs
// its values fall in. Building is local memory management, not a step of
// the model (the model's registers all exist up front), so every
// operation's step count is what it would be with all 63 epochs built at
// construction. Only a write installs: a reader that sees T = e+1 finds
// R_e already published by the write of e+1, which installed it before
// its first step, and a reader that sees T = 0 or 1 reaches no epoch.
// Simulated executions run one process's code at a time, so lazily built
// epochs take the same object IDs on every replay of a schedule.
type Unbounded struct {
	top     *Bounded // exact, domain {0..maxEpochs}: 0 = never written
	factory *prim.Factory
	mk      BoundedFactory
	// epochs is the epoch table once the first epoch is installed, nil
	// before.
	epochs atomic.Pointer[epochTable]
}

// epochTable holds R_e at index e once installed, nil before. Epoch 0
// holds only the value 1 (offset 0) and never gets a register.
type epochTable [maxEpochs]atomic.Pointer[BoundedMaxReg]

var _ object.MaxReg = (*Unbounded)(nil)

// NewUnbounded creates an unbounded max register whose epoch registers
// mk builds on first touch. A plug-in that fails to build an epoch of a
// valid size (2^e for e >= 1) is a programming error: the operation that
// reaches the epoch panics with mk's error.
func NewUnbounded(f *prim.Factory, mk BoundedFactory) (*Unbounded, error) {
	if mk == nil {
		return nil, fmt.Errorf("maxreg: nil epoch factory")
	}
	top, err := NewBounded(f, maxEpochs+1)
	if err != nil {
		return nil, err
	}
	return &Unbounded{top: top, factory: f, mk: mk}, nil
}

// epoch returns R_e (e >= 1), installing it (and the epoch table) if no
// operation has reached epoch e yet.
func (u *Unbounded) epoch(e int) BoundedMaxReg {
	t := u.epochs.Load()
	if t == nil {
		if fresh := new(epochTable); u.epochs.CompareAndSwap(nil, fresh) {
			t = fresh
		} else {
			t = u.epochs.Load()
		}
	}
	if r := t[e].Load(); r != nil {
		return *r
	}
	st := u.factory.Stage()
	r, err := u.mk(st, uint64(1)<<uint(e)) // offsets {0..2^e - 1}
	if err != nil {
		panic(fmt.Sprintf("maxreg: building epoch %d: %v", e, err))
	}
	if t[e].CompareAndSwap(nil, &r) {
		u.factory.Materialized(st.Resident())
		return r
	}
	return *t[e].Load()
}

// epochOf returns the epoch of value v >= 1: floor(log2 v).
func epochOf(v uint64) int { return bits.Len64(v) - 1 }

// Write records v.
func (u *Unbounded) Write(p *prim.Proc, v uint64) {
	if v == 0 {
		return // 0 is the initial value; a no-op write.
	}
	e := epochOf(v)
	if e > 0 {
		u.epoch(e).Write(p, v-(uint64(1)<<uint(e)))
	}
	u.top.Write(p, uint64(e)+1)
}

// Read returns the maximum value written so far, up to the accuracy of the
// plugged-in epoch registers (exact plug-in gives an exact unbounded max
// register; k-multiplicative plug-in errs by at most a factor k).
func (u *Unbounded) Read(p *prim.Proc) uint64 {
	t := u.top.Read(p)
	if t == 0 {
		return 0
	}
	e := int(t - 1)
	base := uint64(1) << uint(e)
	if e == 0 {
		return base
	}
	return base + u.epoch(e).Read(p)
}

type unboundedHandle struct {
	u *Unbounded
	p *prim.Proc
}

// MaxRegHandle implements object.MaxReg.
func (u *Unbounded) MaxRegHandle(p *prim.Proc) object.MaxRegHandle {
	return &unboundedHandle{u: u, p: p}
}

func (h *unboundedHandle) Write(v uint64) { h.u.Write(h.p, v) }
func (h *unboundedHandle) Read() uint64   { return h.u.Read(h.p) }
