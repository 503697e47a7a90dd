package sim

import (
	"reflect"
	"testing"

	"approxobj/internal/prim"
)

// incProgram returns a program that increments reg count times by
// read-then-write (2 steps per increment).
func incProgram(reg *prim.Reg, count int) func(*prim.Proc) {
	return func(p *prim.Proc) {
		for i := 0; i < count; i++ {
			v := reg.Read(p)
			reg.Write(p, v+1)
		}
	}
}

func TestLockstepSerializesSteps(t *testing.T) {
	m := NewMachine(2)
	reg := m.Factory().Reg()
	m.Spawn(0, incProgram(reg, 3))
	m.Spawn(1, incProgram(reg, 3))

	steps := m.RunAll(NewRoundRobin(), 1000)
	if steps != 12 {
		t.Fatalf("total steps = %d, want 12 (2 procs x 3 incs x 2 steps)", steps)
	}
	// Round-robin read-write increments interleave: both processes read
	// the same value and overwrite — the classic lost update, which the
	// lock-step machine must reproduce deterministically.
	if got := reg.Peek(); got != 3 {
		t.Fatalf("final value = %d, want 3 (lost updates under round-robin)", got)
	}
}

func TestSoloRun(t *testing.T) {
	m := NewMachine(1)
	reg := m.Factory().Reg()
	m.Spawn(0, incProgram(reg, 5))
	steps := m.RunSolo(0, 100)
	if steps != 10 {
		t.Fatalf("solo steps = %d, want 10", steps)
	}
	if m.Running(0) {
		t.Fatal("process still running after solo run")
	}
}

func TestStepReturnsFalseWhenIdle(t *testing.T) {
	m := NewMachine(1)
	if m.Step(0) {
		t.Fatal("Step on idle process returned true")
	}
	reg := m.Factory().Reg()
	m.Spawn(0, incProgram(reg, 1))
	if !m.Step(0) || !m.Step(0) {
		t.Fatal("expected 2 steps")
	}
	if m.Step(0) {
		t.Fatal("Step after program end returned true")
	}
}

func TestCrashStopsProcess(t *testing.T) {
	m := NewMachine(2)
	reg := m.Factory().Reg()
	m.Spawn(0, incProgram(reg, 10))
	m.Spawn(1, incProgram(reg, 2))

	if !m.Step(0) {
		t.Fatal("first step failed")
	}
	m.Crash(0)
	if m.Step(0) {
		t.Fatal("crashed process took a step")
	}
	// The other process must still run to completion.
	steps := m.RunAll(NewRoundRobin(), 100)
	if steps != 4 {
		t.Fatalf("remaining steps = %d, want 4", steps)
	}
}

func TestTraceRecordsEvents(t *testing.T) {
	m := NewMachine(1)
	reg := m.Factory().Reg()
	tas := m.Factory().TAS()
	m.Spawn(0, func(p *prim.Proc) {
		reg.Write(p, 9)
		tas.TestAndSet(p)
		reg.Read(p)
	})
	m.RunSolo(0, 10)

	want := []prim.Event{
		{Proc: 0, Op: prim.OpWrite, Obj: reg.ID(), Val: 9},
		{Proc: 0, Op: prim.OpTAS, Obj: tas.ID(), Val: 0},
		{Proc: 0, Op: prim.OpRead, Obj: reg.ID(), Val: 9},
	}
	if !reflect.DeepEqual(m.Trace(), want) {
		t.Fatalf("trace = %+v, want %+v", m.Trace(), want)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func(seed int64) []prim.Event {
		m := NewMachine(3)
		reg := m.Factory().Reg()
		for i := 0; i < 3; i++ {
			m.Spawn(i, incProgram(reg, 4))
		}
		m.RunAll(NewRandom(seed), 1000)
		return m.Trace()
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	c := run(43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces (suspicious)")
	}
}

// TestLazyObjectReplay checks that base objects a program builds between
// its steps (as lazily materialized structures do) replay with the same
// IDs: the machine runs one process's local code at a time, so the
// allocation order follows the schedule alone.
func TestLazyObjectReplay(t *testing.T) {
	run := func(seed int64) []prim.Event {
		m := NewMachine(3)
		f := m.Factory()
		for i := 0; i < 3; i++ {
			m.Spawn(i, func(p *prim.Proc) {
				for j := 0; j < 4; j++ {
					f.Reg().Write(p, uint64(j))
				}
			})
		}
		m.RunAll(NewRandom(seed), 1000)
		return m.Trace()
	}
	a := run(42)
	for i := 0; i < 20; i++ {
		if b := run(42); !reflect.DeepEqual(a, b) {
			t.Fatalf("replay %d of seed 42 built objects in another order", i)
		}
	}
}

func TestScriptedScheduleReplay(t *testing.T) {
	script := []int{0, 1, 1, 0, 1, 0, 0, 1}
	run := func() []prim.Event {
		m := NewMachine(2)
		reg := m.Factory().Reg()
		m.Spawn(0, incProgram(reg, 2))
		m.Spawn(1, incProgram(reg, 2))
		m.RunSchedule(script)
		return append([]prim.Event(nil), m.Trace()...)
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("scripted schedule did not replay identically")
	}
}

func TestRunScheduleSkipsFinished(t *testing.T) {
	m := NewMachine(2)
	reg := m.Factory().Reg()
	m.Spawn(0, incProgram(reg, 1)) // 2 steps
	m.Spawn(1, incProgram(reg, 1))
	taken := m.RunSchedule([]int{0, 0, 0, 0, 1, 1})
	if taken != 4 {
		t.Fatalf("schedule took %d steps, want 4 (extra entries skipped)", taken)
	}
}

func TestTraceOfFiltersByProcess(t *testing.T) {
	m := NewMachine(2)
	reg := m.Factory().Reg()
	m.Spawn(0, incProgram(reg, 2))
	m.Spawn(1, incProgram(reg, 3))
	m.RunAll(NewRoundRobin(), 100)

	if got := len(m.TraceOf(0)); got != 4 {
		t.Fatalf("proc 0 events = %d, want 4", got)
	}
	if got := len(m.TraceOf(1)); got != 6 {
		t.Fatalf("proc 1 events = %d, want 6", got)
	}
}

func TestDistinctObjects(t *testing.T) {
	evs := []prim.Event{
		{Obj: 1}, {Obj: 2}, {Obj: 1}, {Obj: 3}, {Obj: 2},
	}
	if got := DistinctObjects(evs); got != 3 {
		t.Fatalf("DistinctObjects = %d, want 3", got)
	}
	if got := DistinctObjects(nil); got != 0 {
		t.Fatalf("DistinctObjects(nil) = %d, want 0", got)
	}
}

func TestStepCountsMatchTrace(t *testing.T) {
	m := NewMachine(2)
	reg := m.Factory().Reg()
	m.Spawn(0, incProgram(reg, 3))
	m.Spawn(1, incProgram(reg, 5))
	m.RunAll(NewRandom(7), 1000)

	for i := 0; i < 2; i++ {
		if got, want := m.Proc(i).Steps(), uint64(len(m.TraceOf(i))); got != want {
			t.Fatalf("proc %d: Steps() = %d, trace has %d", i, got, want)
		}
	}
}

func TestSpawnPanicsOnRunningProcess(t *testing.T) {
	m := NewMachine(1)
	reg := m.Factory().Reg()
	m.Spawn(0, incProgram(reg, 5))
	m.Step(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Spawn over running process did not panic")
		}
	}()
	m.Spawn(0, incProgram(reg, 1))
}

func TestRespawnAfterFinish(t *testing.T) {
	m := NewMachine(1)
	reg := m.Factory().Reg()
	m.Spawn(0, incProgram(reg, 1))
	m.RunSolo(0, 10)
	m.Spawn(0, incProgram(reg, 1))
	if steps := m.RunSolo(0, 10); steps != 2 {
		t.Fatalf("respawned run took %d steps, want 2", steps)
	}
}

func TestKCASThroughMachine(t *testing.T) {
	// An arity-q KCAS is one scheduled step that lands q trace events and
	// updates awareness for every touched register.
	m := NewMachine(2)
	regs := m.Factory().CASRegs(3)
	kcas := m.Factory().KCAS(regs)

	m.Spawn(0, func(p *prim.Proc) {
		kcas.Apply(p, []uint64{0, 0, 0}, []uint64{1, 2, 3})
	})
	m.Spawn(1, func(p *prim.Proc) {
		regs[2].Read(p)
	})
	if !m.Step(0) {
		t.Fatal("KCAS step not granted")
	}
	if got := len(m.Trace()); got != 3 {
		t.Fatalf("KCAS produced %d trace events, want 3 (one per register)", got)
	}
	if got := m.Proc(0).Steps(); got != 1 {
		t.Fatalf("KCAS counted %d steps, want 1", got)
	}
	for i, want := range []uint64{1, 2, 3} {
		if got := regs[i].Peek(); got != want {
			t.Fatalf("reg[%d] = %d, want %d", i, got, want)
		}
	}
	// Process 1 reads one of the registers: awareness flows from the
	// KCAS issuer.
	m.Step(1)
	if !m.Awareness().Aware(1, 0) {
		t.Fatal("reader not aware of KCAS issuer")
	}
}

func TestFailedKCASInvisible(t *testing.T) {
	m := NewMachine(2)
	regs := m.Factory().CASRegs(2)
	kcas := m.Factory().KCAS(regs)

	// Process 0's KCAS fails (expectations wrong): it must observe but
	// stay invisible.
	m.Spawn(0, func(p *prim.Proc) {
		kcas.Apply(p, []uint64{7, 7}, []uint64{1, 1})
	})
	m.Spawn(1, func(p *prim.Proc) {
		regs[0].Read(p)
	})
	m.Step(0)
	m.Step(1)
	if m.Awareness().Aware(1, 0) {
		t.Fatal("reader aware of an invisible (failed) KCAS")
	}
	if regs[0].Peek() != 0 || regs[1].Peek() != 0 {
		t.Fatal("failed KCAS mutated registers")
	}
}
