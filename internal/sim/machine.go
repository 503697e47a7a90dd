// Package sim implements a deterministic shared-memory machine for the
// asynchronous model of the paper.
//
// Each simulated process runs its real Go code (the same algorithm bodies
// used in production mode) in its own goroutine, but every primitive
// application blocks on the machine's gate until the scheduler grants the
// process its next step. The machine hands control to one process at a
// time and takes it back only once that process is parked at its next gate
// (or has finished), so it is lock-step: no two processes' code ever
// overlaps, executions are exactly the interleavings of single primitive
// applications the model allows, the trace of events is total, and
// identical schedules replay identical executions — including the IDs of
// base objects that algorithms build lazily between steps. This is the
// substrate for all step-complexity measurements and for the lower-bound
// constructions in internal/lowerbound.
package sim

import (
	"fmt"

	"approxobj/internal/prim"
)

// ProcStatus describes the lifecycle of a simulated process.
type ProcStatus int

// Process lifecycle states.
const (
	// StatusIdle means the process has no program or finished its program.
	StatusIdle ProcStatus = iota + 1
	// StatusRunning means the process has a program and can be stepped.
	StatusRunning
	// StatusCrashed means the process was crash-stopped and will take no
	// further steps (its goroutine is parked until the machine shuts down).
	StatusCrashed
)

type slot struct {
	parked chan struct{} // process -> machine: about to wait for a grant
	token  chan struct{} // grant: machine -> process
	ack    chan []prim.Event
	done   chan struct{} // closed when program returns
	status ProcStatus
}

// Machine is a deterministic lock-step shared-memory simulator for n
// processes. It implements prim.Gate. All machine methods must be called
// from a single driver goroutine (typically the test).
type Machine struct {
	factory *prim.Factory
	procs   []*prim.Proc
	slots   []*slot
	trace   []prim.Event
	aware   *Awareness
}

// NewMachine creates a machine for n processes. Base objects for the
// algorithms under test must be created through Factory() in a
// deterministic order, so replays assign identical object IDs; objects
// that programs create lazily between steps get identical IDs too, since
// only one process runs at a time.
func NewMachine(n int) *Machine {
	m := &Machine{}
	m.factory = prim.NewGatedFactory(n, m)
	m.procs = make([]*prim.Proc, n)
	m.slots = make([]*slot, n)
	for i := 0; i < n; i++ {
		m.procs[i] = m.factory.Proc(i)
		m.slots[i] = &slot{status: StatusIdle}
	}
	m.aware = NewAwareness(n)
	return m
}

// Factory returns the machine's base-object factory.
func (m *Machine) Factory() *prim.Factory { return m.factory }

// N returns the number of processes.
func (m *Machine) N() int { return len(m.procs) }

// Proc returns the handle of process i (for reading step counts).
func (m *Machine) Proc(i int) *prim.Proc { return m.procs[i] }

// Enter implements prim.Gate: it tells the machine the calling process is
// parked, then blocks its goroutine until the machine grants it a step.
// Both channels are read before the signal, which orders the reads before
// any later Spawn on the slot (a crashed process stays parked here).
func (m *Machine) Enter(p *prim.Proc) {
	s := m.slots[p.ID()]
	parked, token := s.parked, s.token
	parked <- struct{}{}
	<-token
}

// Exit implements prim.Gate: it reports the completed step (one or more
// events for arity-q primitives) to the driver.
func (m *Machine) Exit(p *prim.Proc, evs []prim.Event) {
	m.slots[p.ID()].ack <- evs
}

// Spawn installs program as the code of process i and starts its goroutine.
// The program runs until it returns or the process is crashed; it only makes
// progress when it is stepped. Spawn returns once the program is parked at
// its first step, or has returned without taking one (the process is then
// idle). Spawning over a running process is a bug in the caller and
// panics.
func (m *Machine) Spawn(i int, program func(p *prim.Proc)) {
	s := m.slots[i]
	if s.status == StatusRunning {
		panic(fmt.Sprintf("sim: process %d already running", i))
	}
	// Fresh channels: a previous program may have left a closed done chan,
	// and a crashed one stays parked on its old token.
	s.parked = make(chan struct{})
	s.token = make(chan struct{})
	s.ack = make(chan []prim.Event)
	s.done = make(chan struct{})
	s.status = StatusRunning
	p, done := m.procs[i], s.done
	go func() {
		program(p)
		close(done)
	}()
	m.settle(s)
}

// settle waits until the process in s is parked at its next step or has
// returned, and marks it idle in the latter case. Between a grant and
// settle's return the process is the only code running, so Running means
// "will take another step when granted" and a seeded schedule sees the
// same set of running processes on every replay.
func (m *Machine) settle(s *slot) {
	select {
	case <-s.parked:
	case <-s.done:
		s.status = StatusIdle
	}
}

// Step grants process i one step and waits for it to complete and for the
// process to reach its next step or finish (it is then idle). It returns
// true if a step was taken; stepping an idle or crashed process returns
// false immediately.
func (m *Machine) Step(i int) bool {
	s := m.slots[i]
	if s.status != StatusRunning {
		return false
	}
	// A running process is parked at its gate (settle saw it arrive).
	s.token <- struct{}{}
	// The process now executes exactly one primitive effect and reports it
	// (arity-q primitives report one event per object touched).
	evs := <-s.ack
	m.trace = append(m.trace, evs...)
	for _, ev := range evs {
		m.aware.Observe(ev)
	}
	// Let its local code run to the next gate or the program's end before
	// anything else happens, so the process is reaped exactly after its
	// last step.
	m.settle(s)
	return true
}

// Running reports whether process i has an unfinished program.
func (m *Machine) Running(i int) bool { return m.slots[i].status == StatusRunning }

// Crash crash-stops process i: it will never be granted another step. Its
// goroutine stays parked (simulated crashes are silent in the model).
func (m *Machine) Crash(i int) {
	s := m.slots[i]
	if s.status == StatusRunning {
		s.status = StatusCrashed
	}
}

// RunSolo steps process i until its program finishes, returning the number
// of steps taken. This is the "solo execution" of the obstruction-freedom
// definition. maxSteps guards against non-terminating programs; RunSolo
// panics when it is exceeded, since in a solo-terminating implementation a
// bounded solo run must finish.
func (m *Machine) RunSolo(i int, maxSteps int) int {
	steps := 0
	for m.Step(i) {
		steps++
		if steps > maxSteps {
			panic(fmt.Sprintf("sim: process %d exceeded %d solo steps (not solo-terminating?)", i, maxSteps))
		}
	}
	return steps
}

// StepN grants process i up to n steps, returning how many were taken.
func (m *Machine) StepN(i, n int) int {
	taken := 0
	for taken < n && m.Step(i) {
		taken++
	}
	return taken
}

// RunSchedule steps processes in the order given, skipping entries whose
// process is no longer running. It returns the number of steps taken.
func (m *Machine) RunSchedule(schedule []int) int {
	taken := 0
	for _, i := range schedule {
		if m.Step(i) {
			taken++
		}
	}
	return taken
}

// RunAll drives all running processes to completion using the scheduler,
// returning the total number of steps. It stops when no process is running.
// maxSteps guards against livelock.
func (m *Machine) RunAll(sched Scheduler, maxSteps int) int {
	steps := 0
	for {
		active := m.active()
		if len(active) == 0 {
			return steps
		}
		i := sched.Next(active)
		if !m.Step(i) {
			continue
		}
		steps++
		if steps > maxSteps {
			panic(fmt.Sprintf("sim: exceeded %d total steps", maxSteps))
		}
	}
}

func (m *Machine) active() []int {
	var act []int
	for i, s := range m.slots {
		if s.status == StatusRunning {
			act = append(act, i)
		}
	}
	return act
}

// Trace returns the events of all steps taken so far, in execution order.
// The returned slice is owned by the machine; callers must not modify it.
func (m *Machine) Trace() []prim.Event { return m.trace }

// TraceOf returns the events issued by process i, in execution order.
func (m *Machine) TraceOf(i int) []prim.Event {
	var evs []prim.Event
	for _, ev := range m.trace {
		if ev.Proc == i {
			evs = append(evs, ev)
		}
	}
	return evs
}

// Awareness returns the machine's awareness tracker.
func (m *Machine) Awareness() *Awareness { return m.aware }

// DistinctObjects returns the number of distinct base objects accessed by
// the events in evs.
func DistinctObjects(evs []prim.Event) int {
	seen := make(map[prim.ObjID]struct{}, len(evs))
	for _, ev := range evs {
		seen[ev.Obj] = struct{}{}
	}
	return len(seen)
}
