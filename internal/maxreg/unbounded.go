package maxreg

import (
	"fmt"
	"math/bits"

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
type Unbounded struct {
	top     *Bounded // exact, domain {0..maxEpochs}: 0 = never written
	epochs  [maxEpochs]BoundedMaxReg
	skipped int // epochs of size 1 (epoch 0 holds only value 1)
}

var _ object.MaxReg = (*Unbounded)(nil)

// NewUnbounded creates an unbounded max register whose epochs are built by
// mk. Epoch registers are created eagerly in epoch order so simulated
// replays assign deterministic object IDs.
func NewUnbounded(f *prim.Factory, mk BoundedFactory) (*Unbounded, error) {
	top, err := NewBounded(f, maxEpochs+1)
	if err != nil {
		return nil, err
	}
	u := &Unbounded{top: top}
	for e := 0; e < maxEpochs; e++ {
		size := epochSize(e)
		if size <= 1 {
			// Epoch 0 holds only the value 1 (offset 0); no register needed.
			u.epochs[e] = nil
			continue
		}
		r, err := mk(f, size)
		if err != nil {
			return nil, fmt.Errorf("maxreg: building epoch %d: %w", e, err)
		}
		u.epochs[e] = r
	}
	return u, nil
}

// epochSize returns the offset-domain size of epoch e ({0..2^e - 1}).
func epochSize(e int) uint64 {
	if e >= 64 {
		return 0
	}
	return uint64(1) << uint(e)
}

// epochOf returns the epoch of value v >= 1: floor(log2 v).
func epochOf(v uint64) int { return bits.Len64(v) - 1 }

// Write records v.
func (u *Unbounded) Write(p *prim.Proc, v uint64) {
	if v == 0 {
		return // 0 is the initial value; a no-op write.
	}
	e := epochOf(v)
	if r := u.epochs[e]; r != nil {
		r.Write(p, v-(uint64(1)<<uint(e)))
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
	if r := u.epochs[e]; r != nil {
		return base + r.Read(p)
	}
	return base
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
