package prim

import "sync/atomic"

// RefReg is a register holding an arbitrary immutable value. The
// asynchronous shared-memory model allows registers of unbounded size; the
// Afek-et-al. atomic snapshot (internal/snapshot) needs registers holding a
// (value, sequence, embedded view) triple. Stored values must be treated as
// immutable once written — writers publish fresh values, never mutate
// published ones.
type RefReg struct {
	id ObjID
	v  atomic.Value
}

// RefReg creates a fresh reference register holding nil.
func (f *Factory) RefReg() *RefReg {
	return &RefReg{id: f.allocID()}
}

// refBox wraps values so atomic.Value accepts differing dynamic types
// (including nil-like states) uniformly.
type refBox struct{ val any }

// Read applies a read primitive and returns the stored value (nil if never
// written). The production path (nil gate) is inlinable, like Reg.Read's.
func (r *RefReg) Read(p *Proc) any {
	if p.gate == nil {
		p.steps++
		if b, ok := r.v.Load().(refBox); ok {
			return b.val
		}
		return nil
	}
	return r.readGated(p)
}

func (r *RefReg) readGated(p *Proc) any {
	p.gate.Enter(p)
	var v any
	if b, ok := r.v.Load().(refBox); ok {
		v = b.val
	}
	p.steps++
	p.exitGated(OpRead, r.id, 0)
	return v
}

// Write applies a write primitive storing v.
func (r *RefReg) Write(p *Proc, v any) {
	if p.gate == nil {
		p.steps++
		r.v.Store(refBox{val: v})
		return
	}
	r.writeGated(p, v)
}

func (r *RefReg) writeGated(p *Proc, v any) {
	p.gate.Enter(p)
	r.v.Store(refBox{val: v})
	p.steps++
	p.exitGated(OpWrite, r.id, 0)
}

// ID returns the base-object identifier.
func (r *RefReg) ID() ObjID { return r.id }
