// Package prim provides the shared-memory primitive layer used by every
// algorithm in this repository.
//
// The asynchronous shared-memory model of the paper is made explicit: a
// process applies at most one primitive (read, write, test&set) to a base
// object per step. Every primitive application in this package goes through
// a *Proc, which counts steps and, when a Gate is attached, defers to a
// deterministic scheduler (see internal/sim) before and after the memory
// effect. With a nil Gate the primitives compile down to plain sync/atomic
// operations plus a local step counter, so the same algorithm bodies run
// both as production concurrent objects and as model-faithful simulations.
package prim

import (
	"sync/atomic"

	"approxobj/internal/telemetry"
)

// Op identifies the primitive applied by a step. Ops start at 1 so the zero
// value is invalid.
type Op int

// Primitive kinds.
const (
	OpRead Op = iota + 1
	OpWrite
	OpTAS
)

// String returns the conventional name of the primitive.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpTAS:
		return "test&set"
	default:
		return "invalid"
	}
}

// Trivial reports whether the primitive can never change the value of the
// base object it is applied to. Reads are trivial; writes and test&set are
// nontrivial (test&set overwrites itself, making {write, test&set}
// historyless in the paper's sense).
func (o Op) Trivial() bool { return o == OpRead }

// Event describes one step: process p applied primitive Op to base object
// Obj, observing or storing Val. For reads and test&set, Val is the value
// read (the previous value for TAS); for writes it is the value written.
type Event struct {
	Proc int
	Op   Op
	Obj  ObjID
	Val  uint64
}

// ObjID identifies a base object within a Factory. IDs are assigned in
// creation order, so systems rebuilt in the same order get identical IDs;
// internal/sim relies on this for execution replay.
type ObjID uint64

// Gate mediates steps for simulated executions. Enter blocks until the
// scheduler grants the process its next step; Exit reports the completed
// step so the machine can record the trace and propagate awareness. One
// step may touch several base objects (arity-q conditionals like KCAS), so
// Exit carries a batch of events — exactly one Exit call per Enter. A nil
// Gate (production mode) skips both calls.
//
// The memory effect of the step happens between Enter and Exit, while the
// issuing process is the only one running (the simulation machine is
// lock-step), so effects are atomic with respect to other simulated
// processes.
type Gate interface {
	Enter(p *Proc)
	Exit(p *Proc, evs []Event)
}

// Proc represents a process of the model. All primitive applications are
// issued through a Proc so that steps can be counted and scheduled. A Proc
// must only be used by a single goroutine at a time; step counts may be read
// by other goroutines only after the owning goroutine is known to have
// stopped (e.g. after a WaitGroup join).
type Proc struct {
	id    int
	steps uint64
	gate  Gate
}

// ID returns the process identifier, in [0, n).
func (p *Proc) ID() int { return p.id }

// Steps returns the number of primitive applications issued so far.
func (p *Proc) Steps() uint64 { return p.steps }

// ResetSteps zeroes the step counter (used between measurement phases).
func (p *Proc) ResetSteps() { p.steps = 0 }

func (p *Proc) enter() {
	if p.gate != nil {
		p.gate.Enter(p)
	}
}

func (p *Proc) exit(op Op, obj ObjID, val uint64) {
	p.steps++
	if p.gate != nil {
		p.exitGated(op, obj, val)
	}
}

// ReadUnbuilt applies p's reads of m registers whose storage is not
// built, at once where that is exact: the rule every lazily built
// structure (LazyRegRow, maxreg's tree nodes) reads by. A structure is
// built before its first write, so in production mode every one of the
// m registers held its initial value 0 when the caller found them
// unbuilt; the reads cost m steps and no loads, and ReadUnbuilt reports
// true. A gated process must take each read as its own step, since the
// structure may be built and written while it waits at a gate: for it
// ReadUnbuilt takes no step and reports false, and the caller reads (or
// builds) the registers one step at a time.
func (p *Proc) ReadUnbuilt(m int) bool {
	if p.gate != nil {
		return false
	}
	p.steps += uint64(m)
	return true
}

// exitGated is the simulation-mode tail of exit, kept out of line so the
// production path (nil gate: one increment, one predictable-not-taken
// branch) stays within the inlining budget of every primitive — the
// event-batch literal here would otherwise price exit, and with it
// Reg.Read/Write and TAS.TestAndSet, out of inlining at every call site.
// Step counts are identical on both paths: exit increments before
// branching.
func (p *Proc) exitGated(op Op, obj ObjID, val uint64) {
	p.gate.Exit(p, []Event{{Proc: p.id, Op: op, Obj: obj, Val: val}})
}

// Reg is a base object supporting atomic read and write of a uint64.
type Reg struct {
	id ObjID
	v  atomic.Uint64
}

// Read applies a read primitive and returns the register's value. The
// production path (nil gate) is inlinable: one branch, one atomic load,
// one step-count increment.
func (r *Reg) Read(p *Proc) uint64 {
	if p.gate == nil {
		p.steps++
		return r.v.Load()
	}
	return r.readGated(p)
}

func (r *Reg) readGated(p *Proc) uint64 {
	p.gate.Enter(p)
	v := r.v.Load()
	p.steps++
	p.exitGated(OpRead, r.id, v)
	return v
}

// Write applies a write primitive, storing v. The production path (nil
// gate) is inlinable, like Read's.
func (r *Reg) Write(p *Proc, v uint64) {
	if p.gate == nil {
		p.steps++
		r.v.Store(v)
		return
	}
	r.writeGated(p, v)
}

func (r *Reg) writeGated(p *Proc, v uint64) {
	p.gate.Enter(p)
	r.v.Store(v)
	p.steps++
	p.exitGated(OpWrite, r.id, v)
}

// Peek returns the register's value without taking a model step. It is a
// diagnostic for drivers and tests inspecting final states; algorithms must
// use Read.
func (r *Reg) Peek() uint64 { return r.v.Load() }

// ID returns the base-object identifier.
func (r *Reg) ID() ObjID { return r.id }

// TAS is a 1-bit base object supporting test&set and read primitives, as
// required by Algorithm 1's switches. test&set sets the bit and returns its
// previous value; it is historyless (it overwrites itself).
type TAS struct {
	id ObjID
	v  atomic.Uint32
}

// TestAndSet sets the bit to 1 and reports whether this call changed it
// (i.e. returns true iff the previous value was 0, meaning the caller "won"
// the bit). The production path (nil gate) is inlinable, like Reg.Read's.
func (t *TAS) TestAndSet(p *Proc) bool {
	if p.gate == nil {
		p.steps++
		return t.v.Swap(1) == 0
	}
	return t.tasGated(p)
}

func (t *TAS) tasGated(p *Proc) bool {
	p.gate.Enter(p)
	old := t.v.Swap(1)
	p.steps++
	p.exitGated(OpTAS, t.id, uint64(old))
	return old == 0
}

// Read applies a read primitive and returns the bit.
func (t *TAS) Read(p *Proc) uint64 {
	if p.gate == nil {
		p.steps++
		return uint64(t.v.Load())
	}
	return t.readGated(p)
}

func (t *TAS) readGated(p *Proc) uint64 {
	p.gate.Enter(p)
	v := uint64(t.v.Load())
	p.steps++
	p.exitGated(OpRead, t.id, v)
	return v
}

// Set reports whether the bit is 1, applying one read primitive.
func (t *TAS) Set(p *Proc) bool { return t.Read(p) == 1 }

// Peek returns the bit without taking a model step (diagnostic; see
// Reg.Peek).
func (t *TAS) Peek() uint64 { return uint64(t.v.Load()) }

// ID returns the base-object identifier.
func (t *TAS) ID() ObjID { return t.id }

// Factory creates base objects with deterministic identifiers: IDs follow
// creation order, so a system rebuilt by the same code gets the same IDs —
// internal/sim relies on this for replay. Lazily-materialized structures
// (tree nodes, switch tables and levels, max-register epoch tables and
// epochs, dense and helping rows) are built during execution, by a write
// in production mode; allocation is atomic, so production-mode races are
// safe, and simulated executions stay deterministic because the machine
// runs one process's code at a time.
type Factory struct {
	next atomic.Uint64
	// resident counts base objects with materialized storage: every
	// eagerly allocated object (Reg, TAS, CASReg, ...) at creation, plus
	// lazily built ones (TASSeq levels, tree nodes, epochs, dense and
	// helping rows) once their publishing CAS wins. Unlike next it excludes reserved-but-untouched
	// ID blocks and the objects of a structure that lost its publishing
	// race, so it is the space measure of the paper's model: how many
	// base objects the execution actually holds.
	resident atomic.Uint64
	// root is the factory a Stage view was taken from (nil for a root
	// factory): views draw IDs from root.next and count lazily
	// materialized objects in root.resident.
	root  *Factory
	gate  Gate
	procs []*Proc

	// tel receives arena-allocation events when the owning plane is
	// instrumented (nil otherwise; every telemetry.Sink method is
	// nil-receiver-safe, so allocation paths report unconditionally —
	// allocation is never a hot path, unlike the step primitives above,
	// which stay untouched).
	tel *telemetry.Sink
}

// NewFactory returns a production-mode factory for an n-process system.
func NewFactory(n int) *Factory { return newFactory(n, nil) }

// NewGatedFactory returns a factory whose processes are mediated by gate.
func NewGatedFactory(n int, gate Gate) *Factory { return newFactory(n, gate) }

func newFactory(n int, gate Gate) *Factory {
	f := &Factory{gate: gate, procs: make([]*Proc, n)}
	for i := range f.procs {
		f.procs[i] = &Proc{id: i, gate: gate}
	}
	return f
}

// Instrument attaches a telemetry sink to the factory's allocation
// paths (arena row constructors report telemetry.EvArenaRow). A nil
// sink disables instrumentation; attach before objects are built so
// construction-time rows are counted.
func (f *Factory) Instrument(s *telemetry.Sink) { f.tel = s }

// N returns the number of processes the system was declared with.
func (f *Factory) N() int { return len(f.procs) }

// Proc returns the process handle for id. Handles are cached: every call
// with the same id returns the same *Proc, so step counts accumulate per
// process no matter how callers obtain the handle.
func (f *Factory) Proc(id int) *Proc {
	if id < 0 || id >= len(f.procs) {
		panic("prim: proc id out of range")
	}
	return f.procs[id]
}

// Procs returns the handles of all n processes.
func (f *Factory) Procs() []*Proc {
	return append([]*Proc(nil), f.procs...)
}

// origin returns the root factory: f itself, or the factory f is a Stage
// view of.
func (f *Factory) origin() *Factory {
	if f.root != nil {
		return f.root
	}
	return f
}

func (f *Factory) allocID() ObjID {
	f.resident.Add(1)
	return ObjID(f.origin().next.Add(1) - 1)
}

// allocBlock reserves a contiguous block of size IDs, returning its base.
// Reservation is ID-space bookkeeping only; the block's cells count as
// resident when (and if) their storage materializes.
func (f *Factory) allocBlock(size uint64) ObjID {
	return ObjID(f.origin().next.Add(size) - size)
}

// Stage returns a view of f for building a structure that is published
// lazily, with a CAS that may lose to a concurrent construction of the
// same structure. The view shares f's ID sequence, processes, gate and
// telemetry, but the objects it creates count only in the view's own
// Resident; the caller adds that count to f with Materialized once its
// CAS wins, and a losing copy's objects are never counted. Cells that
// materialize later inside the published structure (tree nodes, TASSeq
// levels, LazyRegRow rows) count in f directly.
func (f *Factory) Stage() *Factory {
	return &Factory{root: f.origin(), gate: f.gate, procs: f.procs, tel: f.tel}
}

// Materialized counts n base objects of a lazily built structure as
// resident in the root factory. Call it only after the CAS publishing the
// structure has won, so a race's losing copy is never counted.
func (f *Factory) Materialized(n uint64) { f.origin().resident.Add(n) }

// Objects returns the number of base-object IDs allocated so far (including
// reserved blocks and the objects of lost publishing races).
func (f *Factory) Objects() uint64 { return f.origin().next.Load() }

// Resident returns the number of base objects with materialized storage —
// the execution's space cost in the paper's model. It grows as lazily
// built structures (TASSeq levels, tree nodes, max-register epochs,
// dense and helping rows) materialize, so unbounded constructions and
// never-written rows report what they hold, not what they reserve. On a
// Stage view it counts the objects the view created, which the caller
// hands to Materialized.
func (f *Factory) Resident() uint64 { return f.resident.Load() }

// Reg creates a fresh read/write register initialized to zero.
func (f *Factory) Reg() *Reg { return &Reg{id: f.allocID()} }

// Regs creates a slice of m fresh registers.
func (f *Factory) Regs(m int) []*Reg {
	rs := make([]*Reg, m)
	for i := range rs {
		rs[i] = f.Reg()
	}
	return rs
}

// TAS creates a fresh test&set bit initialized to zero.
func (f *Factory) TAS() *TAS { return &TAS{id: f.allocID()} }
