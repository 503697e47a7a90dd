package prim

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestRegReadWrite(t *testing.T) {
	f := NewFactory(2)
	p := f.Proc(0)
	r := f.Reg()

	if got := r.Read(p); got != 0 {
		t.Fatalf("initial Read = %d, want 0", got)
	}
	r.Write(p, 42)
	if got := r.Read(p); got != 42 {
		t.Fatalf("Read after Write(42) = %d, want 42", got)
	}
	r.Write(p, 7)
	if got := r.Read(p); got != 7 {
		t.Fatalf("Read after Write(7) = %d, want 7", got)
	}
}

func TestStepCounting(t *testing.T) {
	f := NewFactory(1)
	p := f.Proc(0)
	r := f.Reg()
	tas := f.TAS()

	r.Write(p, 1)     // 1
	r.Read(p)         // 2
	tas.TestAndSet(p) // 3
	tas.Read(p)       // 4
	if got := p.Steps(); got != 4 {
		t.Fatalf("Steps = %d, want 4", got)
	}
	p.ResetSteps()
	if got := p.Steps(); got != 0 {
		t.Fatalf("Steps after reset = %d, want 0", got)
	}
}

func TestTASSemantics(t *testing.T) {
	f := NewFactory(1)
	p := f.Proc(0)
	tas := f.TAS()

	if tas.Set(p) {
		t.Fatal("fresh TAS bit reads 1, want 0")
	}
	if !tas.TestAndSet(p) {
		t.Fatal("first TestAndSet lost, want win")
	}
	if tas.TestAndSet(p) {
		t.Fatal("second TestAndSet won, want lose")
	}
	if !tas.Set(p) {
		t.Fatal("TAS bit reads 0 after set, want 1")
	}
}

func TestTASOnlyOneWinner(t *testing.T) {
	const procs = 16
	f := NewFactory(procs)
	tas := f.TAS()

	var wg sync.WaitGroup
	wins := make([]bool, procs)
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wins[i] = tas.TestAndSet(f.Proc(i))
		}(i)
	}
	wg.Wait()

	winners := 0
	for _, w := range wins {
		if w {
			winners++
		}
	}
	if winners != 1 {
		t.Fatalf("TestAndSet had %d winners, want exactly 1", winners)
	}
}

func TestTASSeqIndependentBits(t *testing.T) {
	f := NewFactory(1)
	p := f.Proc(0)
	s := f.TASSeq()

	// Touch a spread of indices, including level boundaries.
	indices := []uint64{0, 1, 2, 3, 62, 63, 64, 1000, 1 << 20}
	for _, i := range indices {
		if got := s.Read(p, i); got != 0 {
			t.Fatalf("switch %d initially %d, want 0", i, got)
		}
	}
	for _, i := range indices {
		if !s.TestAndSet(p, i) {
			t.Fatalf("first TestAndSet on switch %d lost", i)
		}
	}
	for _, i := range indices {
		if got := s.Read(p, i); got != 1 {
			t.Fatalf("switch %d reads %d after set, want 1", i, got)
		}
		if s.TestAndSet(p, i) {
			t.Fatalf("second TestAndSet on switch %d won", i)
		}
	}
	// Neighbours of touched indices must remain 0.
	for _, i := range []uint64{4, 61, 65, 999, 1001, 1<<20 - 1, 1<<20 + 1} {
		if got := s.Read(p, i); got != 0 {
			t.Fatalf("untouched switch %d reads %d, want 0", i, got)
		}
	}
}

func TestTASSeqSlotMapping(t *testing.T) {
	// Levels are contiguous and non-overlapping: index i maps to level
	// len(i+1)-1 with offsets 0..2^level-1 in order.
	next := map[int]uint64{}
	for i := uint64(0); i < 4096; i++ {
		level, off := tasSeqSlot(i)
		if off != next[level] {
			t.Fatalf("index %d: level %d offset %d, want %d", i, level, off, next[level])
		}
		next[level]++
		if off >= uint64(1)<<uint(level) {
			t.Fatalf("index %d: offset %d overflows level %d", i, off, level)
		}
	}
}

func TestPairRegRoundTrip(t *testing.T) {
	f := NewFactory(1)
	p := f.Proc(0)
	r := f.PairReg()

	if v, sn := r.Read(p); v != 0 || sn != 0 {
		t.Fatalf("initial pair = (%d, %d), want (0, 0)", v, sn)
	}
	r.Write(p, 123, 456)
	if v, sn := r.Read(p); v != 123 || sn != 456 {
		t.Fatalf("pair = (%d, %d), want (123, 456)", v, sn)
	}
}

func TestPackPairQuick(t *testing.T) {
	roundTrip := func(val, sn uint32) bool {
		v, s := UnpackPair(PackPair(val, sn))
		return v == val && s == sn
	}
	if err := quick.Check(roundTrip, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFactoryIDsDeterministic(t *testing.T) {
	build := func() []ObjID {
		f := NewFactory(2)
		var ids []ObjID
		ids = append(ids, f.Reg().ID())
		ids = append(ids, f.TAS().ID())
		s := f.TASSeq()
		ids = append(ids, s.objID(0), s.objID(17))
		ids = append(ids, f.PairReg().ID())
		return ids
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ID %d differs across identical builds: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestStageDefersResident checks the Stage view's accounting contract:
// a view draws IDs from its factory's sequence and shares its processes,
// its objects count in the factory only through Materialized, and cells
// that materialize later inside a staged structure count in the factory
// directly.
func TestStageDefersResident(t *testing.T) {
	f := NewFactory(2)
	f.Reg()
	st := f.Stage()
	r := st.Reg()
	seq := st.TASSeq()
	if r.ID() != 1 || f.Reg().ID() != 2+1<<32 {
		t.Fatalf("staged IDs must continue the factory's sequence: got reg %d", r.ID())
	}
	if st.Proc(1) != f.Proc(1) || st.N() != f.N() {
		t.Fatal("a Stage view must share its factory's processes")
	}
	if got := f.Resident(); got != 2 {
		t.Fatalf("factory Resident = %d, want 2 (the staged reg is not counted yet)", got)
	}
	if got := st.Resident(); got != 1 {
		t.Fatalf("view Resident = %d, want 1", got)
	}
	f.Materialized(st.Resident())
	seq.TestAndSet(f.Proc(0), 0) // materializes level 0: one switch
	if got := f.Resident(); got != 4 {
		t.Fatalf("factory Resident = %d, want 4 (two regs, the published staged reg, one switch)", got)
	}
	if got := f.Objects(); got != 3+1<<32 {
		t.Fatalf("factory Objects = %d, want 3 + 2^32 (the TASSeq block included)", got)
	}
}

func TestProcIDRange(t *testing.T) {
	f := NewFactory(3)
	for i := 0; i < 3; i++ {
		if got := f.Proc(i).ID(); got != i {
			t.Fatalf("Proc(%d).ID() = %d", i, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Proc(3) on 3-process factory did not panic")
		}
	}()
	f.Proc(3)
}

func TestOpString(t *testing.T) {
	cases := []struct {
		op   Op
		want string
	}{
		{OpRead, "read"},
		{OpWrite, "write"},
		{OpTAS, "test&set"},
		{Op(0), "invalid"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Errorf("Op(%d).String() = %q, want %q", c.op, got, c.want)
		}
	}
	if !OpRead.Trivial() || OpWrite.Trivial() || OpTAS.Trivial() {
		t.Error("Trivial: want read trivial, write and test&set nontrivial")
	}
}

func TestRefReg(t *testing.T) {
	f := NewFactory(1)
	p := f.Proc(0)
	r := f.RefReg()

	if got := r.Read(p); got != nil {
		t.Fatalf("initial RefReg.Read = %v, want nil", got)
	}
	r.Write(p, "hello")
	if got := r.Read(p); got != "hello" {
		t.Fatalf("RefReg.Read = %v, want hello", got)
	}
	r.Write(p, nil)
	if got := r.Read(p); got != nil {
		t.Fatalf("RefReg.Read after Write(nil) = %v, want nil", got)
	}
}

func TestTASSeqConcurrentStress(t *testing.T) {
	// Many goroutines race test&set across an index range spanning several
	// lazily-allocated levels: every switch must have exactly one winner
	// and end up set.
	const procs = 8
	const span = 3000
	f := NewFactory(procs)
	s := f.TASSeq()

	winners := make([][]uint64, procs)
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := f.Proc(i)
			for idx := uint64(0); idx < span; idx++ {
				if s.TestAndSet(p, idx) {
					winners[i] = append(winners[i], idx)
				}
			}
		}(i)
	}
	wg.Wait()

	wonBy := make(map[uint64]int)
	for i, list := range winners {
		for _, idx := range list {
			if prev, dup := wonBy[idx]; dup {
				t.Fatalf("switch %d won by both %d and %d", idx, prev, i)
			}
			wonBy[idx] = i
		}
	}
	if len(wonBy) != span {
		t.Fatalf("%d switches won, want %d", len(wonBy), span)
	}
	p := f.Proc(0)
	for idx := uint64(0); idx < span; idx++ {
		if !s.Set(p, idx) {
			t.Fatalf("switch %d not set after the race", idx)
		}
	}
}

func TestProcHandleCached(t *testing.T) {
	// Factory.Proc returns the same handle every time, so step counts
	// accumulate per process regardless of how callers fetch the handle.
	f := NewFactory(2)
	r := f.Reg()
	r.Write(f.Proc(1), 5)
	r.Read(f.Proc(1))
	if got := f.Proc(1).Steps(); got != 2 {
		t.Fatalf("steps via re-fetched handle = %d, want 2", got)
	}
	if f.Proc(0) != f.Proc(0) {
		t.Fatal("Proc(0) not cached")
	}
}
