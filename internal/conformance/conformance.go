// Package conformance drives counter and max-register implementations
// through concurrent workloads and checks the resulting histories for
// linearizability within their object.Bounds envelopes.
//
// A System pairs an object under test with the checker of its histories;
// Counter and MaxRegister build one for either kind. Two drivers run a
// System:
//
//   - Sim: step-granular adversarial interleavings on the deterministic
//     machine of internal/sim. The driver stamps an operation's invocation
//     right before its first step and its response right after its last, so
//     recorded precedence is exactly the model's. Supports crash injection.
//   - HW: real goroutines over sync/atomic primitives with logical-clock
//     history recording (the production path).
//
// Both feed internal/check. This package's own tests run them against the
// paper's algorithms and the exact and additive baselines.
package conformance

import (
	"fmt"
	"math/rand"

	"approxobj/internal/check"
	"approxobj/internal/history"
	"approxobj/internal/object"
	"approxobj/internal/prim"
	"approxobj/internal/sim"
)

// Workload describes a randomized mixed workload.
type Workload struct {
	Procs    int
	OpsPer   int     // operations per process
	ReadFrac float64 // fraction of reads (rest are updates)
	Seed     int64
	// MaxArg bounds write arguments for max registers (exclusive); ignored
	// for counters.
	MaxArg uint64
	// CrashProcs crash-stops this many processes at a random point
	// (simulated driver only).
	CrashProcs int
}

// opKind is a scheduled operation of a scripted workload.
type opKind struct {
	kind history.Kind
	arg  uint64
}

// script pre-generates each process's operation list so runs are
// reproducible from the seed alone.
func (w Workload) script(counter bool) [][]opKind {
	rng := rand.New(rand.NewSource(w.Seed))
	scripts := make([][]opKind, w.Procs)
	for i := range scripts {
		ops := make([]opKind, w.OpsPer)
		for j := range ops {
			if rng.Float64() < w.ReadFrac {
				if counter {
					ops[j] = opKind{kind: history.KindCounterRead}
				} else {
					ops[j] = opKind{kind: history.KindMaxRead}
				}
			} else {
				if counter {
					ops[j] = opKind{kind: history.KindInc}
				} else {
					arg := uint64(rng.Int63n(int64(w.MaxArg-1))) + 1
					ops[j] = opKind{kind: history.KindWrite, arg: arg}
				}
			}
		}
		scripts[i] = ops
	}
	return scripts
}

// System is an object under test paired with the checker of its
// histories. Counter and MaxRegister build one.
type System struct {
	counter bool // scripts counter operations, else max-register ones
	// bind builds the object on f and returns, per process, how that
	// process applies a scripted operation (its response, 0 for updates).
	bind func(f *prim.Factory, procs int) ([]func(opKind) uint64, error)
	// check judges the completed operations, given the updates that
	// crashed mid-flight.
	check func(completed, pending []history.Op) check.Result
}

// Counter is the System of the counter built by mk, checked within b.
func Counter(mk func(f *prim.Factory) (object.Counter, error), b object.Bounds) System {
	return System{
		counter: true,
		bind: func(f *prim.Factory, procs int) ([]func(opKind) uint64, error) {
			c, err := mk(f)
			if err != nil {
				return nil, err
			}
			apply := make([]func(opKind) uint64, procs)
			for i := range apply {
				h := c.CounterHandle(f.Proc(i))
				apply[i] = func(op opKind) uint64 {
					if op.kind == history.KindInc {
						h.Inc()
						return 0
					}
					return h.Read()
				}
			}
			return apply, nil
		},
		check: func(completed, pending []history.Op) check.Result {
			incs := 0
			for _, op := range pending {
				if op.Kind == history.KindInc {
					incs++
				}
			}
			return check.Counter(completed, b, incs)
		},
	}
}

// MaxRegister is the System of the max register built by mk, checked
// within b.
func MaxRegister(mk func(f *prim.Factory) (object.MaxReg, error), b object.Bounds) System {
	return System{
		bind: func(f *prim.Factory, procs int) ([]func(opKind) uint64, error) {
			r, err := mk(f)
			if err != nil {
				return nil, err
			}
			apply := make([]func(opKind) uint64, procs)
			for i := range apply {
				h := r.MaxRegHandle(f.Proc(i))
				apply[i] = func(op opKind) uint64 {
					if op.kind == history.KindWrite {
						h.Write(op.arg)
						return 0
					}
					return h.Read()
				}
			}
			return apply, nil
		},
		check: func(completed, pending []history.Op) check.Result {
			var writes []uint64
			for _, op := range pending {
				if op.Kind == history.KindWrite {
					writes = append(writes, op.Arg)
				}
			}
			return check.MaxRegister(completed, b, writes)
		},
	}
}

// verdict checks a recorded history of the workload against sys.
func (sys System) verdict(w Workload, completed, pending []history.Op) error {
	if res := sys.check(completed, pending); !res.OK {
		return fmt.Errorf("seed %d: %s", w.Seed, res.Reason)
	}
	return nil
}

// Sim runs the workload against sys on a fresh simulated machine, under a
// schedule drawn from the seed, and checks the history: the completed
// operations plus the updates that crashed mid-flight. It returns an
// error describing the violation, if any.
func Sim(sys System, w Workload) error {
	m := sim.NewMachine(w.Procs)
	apply, err := sys.bind(m.Factory(), w.Procs)
	if err != nil {
		return err
	}
	scripts := w.script(sys.counter)

	rng := rand.New(rand.NewSource(w.Seed + 1))
	// Pre-pick crash points: (process, remaining steps before crash).
	nCrash := w.CrashProcs
	if nCrash > w.Procs {
		nCrash = w.Procs
	}
	crashAfter := make(map[int]int)
	for _, i := range rng.Perm(w.Procs)[:nCrash] {
		crashAfter[i] = rng.Intn(w.OpsPer * 4)
	}

	var (
		clock     uint64
		completed []history.Op
		pending   []history.Op
		current   = make([]*history.Op, w.Procs)
		nextOp    = make([]int, w.Procs)
		results   = make([]uint64, w.Procs)
		crashed   = make([]bool, w.Procs)
	)
	active := func() []int {
		var ids []int
		for i := 0; i < w.Procs; i++ {
			if crashed[i] {
				continue
			}
			if current[i] != nil || nextOp[i] < len(scripts[i]) {
				ids = append(ids, i)
			}
		}
		return ids
	}
	for {
		ids := active()
		if len(ids) == 0 {
			break
		}
		i := ids[rng.Intn(len(ids))]
		if steps, ok := crashAfter[i]; ok && steps <= 0 && current[i] != nil {
			// Crash mid-operation: the op stays pending forever.
			m.Crash(i)
			crashed[i] = true
			pending = append(pending, *current[i])
			current[i] = nil
			continue
		}
		if current[i] == nil {
			// Invoke the next scripted op.
			op := scripts[i][nextOp[i]]
			nextOp[i]++
			clock++
			current[i] = &history.Op{Proc: i, Kind: op.kind, Arg: op.arg, Inv: clock}
			m.Spawn(i, func(*prim.Proc) {
				results[i] = apply[i](op)
			})
		}
		took := m.Step(i)
		if steps, ok := crashAfter[i]; ok && took {
			crashAfter[i] = steps - 1
		}
		if !m.Running(i) {
			clock++
			cur := current[i]
			cur.Ret = clock
			cur.Resp = results[i]
			completed = append(completed, *cur)
			current[i] = nil
		}
	}
	return sys.verdict(w, completed, pending)
}

// HW runs the workload against sys with real goroutines, one per
// process, and checks the recorded history.
func HW(sys System, w Workload) error {
	f := prim.NewFactory(w.Procs)
	apply, err := sys.bind(f, w.Procs)
	if err != nil {
		return err
	}
	rec := history.NewRecorder(w.Procs)
	scripts := w.script(sys.counter)
	if err := runProcs(w.Procs, func(i int) {
		for _, op := range scripts[i] {
			rec.Record(i, op.kind, op.arg, func() uint64 { return apply[i](op) })
		}
	}); err != nil {
		return err
	}
	return sys.verdict(w, rec.History(), nil)
}

// runProcs runs body(i) on n goroutines and waits for them.
func runProcs(n int, body func(i int)) error {
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer func() {
				if r := recover(); r != nil {
					done <- fmt.Errorf("process %d panicked: %v", i, r)
					return
				}
				done <- nil
			}()
			body(i)
		}(i)
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-done; err != nil && first == nil {
			first = err
		}
	}
	return first
}
