package histogram

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"approxobj/internal/object"
	"approxobj/internal/prim"
	"approxobj/internal/satmath"
	"approxobj/internal/sim"
)

// simOp is one scripted vector operation in a simulated run: an addition
// AddN(b, d) or a read. Positions are trace lengths: inv when the op was
// invoked, ret when it returned (-1 while pending); first and last are
// the trace indices of its first and last step.
type simOp struct {
	read        bool
	b           int
	d           uint64
	inv, ret    int
	first, last int
	steps       int
	built       int // rows built when a read was invoked
	got         []uint64
}

// simulateVector runs two writers and one reader on a fresh vector under
// the seeded random schedule, crashing writer 1 mid-operation on every
// 4th seed, and checks the run: every event touches a reserved row
// block (a writer only its own row) and observes what the register
// held, every read takes n × buckets steps and is regular per bucket,
// and only rows whose writer started hold storage. It returns the trace
// and the reads.
func simulateVector(t *testing.T, seed int64) ([]prim.Event, []*simOp) {
	t.Helper()
	const n, buckets, adds, reads = 3, 4, 10, 4
	m := sim.NewMachine(n)
	f := m.Factory()
	v, err := NewVector(f, buckets)
	if err != nil {
		t.Fatal(err)
	}
	hs := make([]object.HistHandle, n)
	for i := range hs {
		hs[i] = v.HistHandle(f.Proc(i))
	}
	rng := rand.New(rand.NewSource(seed))
	scripts := make([][]*simOp, n)
	for w := 0; w < 2; w++ {
		for j := 0; j < adds; j++ {
			scripts[w] = append(scripts[w], &simOp{b: rng.Intn(buckets), d: uint64(1 + rng.Intn(3)), inv: -1, ret: -1})
		}
	}
	for j := 0; j < reads; j++ {
		scripts[2] = append(scripts[2], &simOp{read: true, inv: -1, ret: -1})
	}
	crash, crashAfter := -1, 0
	if seed%4 == 0 {
		crash, crashAfter = 1, rng.Intn(adds)
	}

	sched := sim.NewRandom(seed)
	cur := make([]*simOp, n)
	next, taken := make([]int, n), make([]int, n)
	crashed := make([]bool, n)
	for {
		var active []int
		for i := 0; i < n; i++ {
			if !crashed[i] && (cur[i] != nil || next[i] < len(scripts[i])) {
				active = append(active, i)
			}
		}
		if len(active) == 0 {
			break
		}
		i := sched.Next(active)
		if cur[i] == nil {
			op := scripts[i][next[i]]
			next[i]++
			op.inv, op.first = len(m.Trace()), -1
			for r := range v.rows {
				if v.rows[r].Row() != nil {
					op.built++
				}
			}
			cur[i] = op
			h := hs[i]
			if op.read {
				m.Spawn(i, func(*prim.Proc) { op.got = h.Read() })
			} else {
				m.Spawn(i, func(*prim.Proc) { h.AddN(op.b, op.d) })
			}
		}
		if i == crash && taken[i] >= crashAfter {
			m.Crash(i) // its current addition stays pending
			crashed[i] = true
			continue
		}
		at := len(m.Trace())
		if m.Step(i) {
			taken[i]++
			if cur[i].first < 0 {
				cur[i].first = at
			}
			cur[i].last = len(m.Trace()) - 1
			cur[i].steps++
		}
		if !m.Running(i) {
			cur[i].ret = len(m.Trace())
			cur[i] = nil
		}
	}

	trace := m.Trace()
	mem := make(map[prim.ObjID]uint64) // the registers' values, replayed
	for _, ev := range trace {
		if ev.Op == prim.OpWrite {
			mem[ev.Obj] = ev.Val
		} else if ev.Val != mem[ev.Obj] {
			t.Fatalf("seed %d: %+v observed %d, the register held %d", seed, ev, ev.Val, mem[ev.Obj])
		}
		row := -1
		for r := range v.rows {
			if lo := v.rows[r].ID(0); ev.Obj >= lo && ev.Obj < lo+buckets {
				row = r
			}
		}
		if row < 0 {
			t.Fatalf("seed %d: event %+v outside every row's reserved block", seed, ev)
		}
		if ev.Proc != 2 && row != ev.Proc {
			t.Fatalf("seed %d: writer %d touched row %d: %+v", seed, ev.Proc, row, ev)
		}
	}
	var built uint64
	for w := 0; w < n; w++ {
		started := w < 2 && next[w] > 0
		if got := v.rows[w].Row() != nil; got != started {
			t.Fatalf("seed %d: row %d built = %v, want %v (only a writer that started builds)", seed, w, got, started)
		}
		if started {
			built += buckets
		}
	}
	if f.Resident() != built {
		t.Fatalf("seed %d: Resident %d, want %d (the built rows)", seed, f.Resident(), built)
	}
	for _, r := range scripts[2] {
		if r.steps != n*buckets {
			t.Fatalf("seed %d: read with %d rows built took %d steps, want %d", seed, r.built, r.steps, n*buckets)
		}
		for b := 0; b < buckets; b++ {
			// lo: additions completed before the read's first step; hi:
			// those invoked before its last (a crashed one included).
			var lo, hi uint64
			for _, w := range scripts[:2] {
				for _, a := range w {
					if a.b != b {
						continue
					}
					if a.ret >= 0 && a.ret <= r.first {
						lo += a.d
					}
					if a.inv >= 0 && a.inv <= r.last {
						hi += a.d
					}
				}
			}
			if got := r.got[b]; got < lo || got > hi {
				t.Fatalf("seed %d: read over trace [%d, %d] counts %d in bucket %d, want within [%d, %d]", seed, r.first, r.last, got, b, lo, hi)
			}
		}
	}
	return trace, scripts[2]
}

// TestVectorLazyRowsSimulated runs the vector on the deterministic
// simulator: two writers add into their own rows, each built by the
// writer's first addition, while a third process reads, on seeded random
// schedules with writer 1 crashed on every 4th seed. Every seed must
// replay the same trace and reads 20 times, and across the seeds reads
// must meet 0, 1 and 2 built rows (each still n × buckets steps).
func TestVectorLazyRowsSimulated(t *testing.T) {
	const seeds, replays = 16, 20
	seen := map[int]bool{}
	for seed := int64(1); seed <= seeds; seed++ {
		trace, reads := simulateVector(t, seed)
		for _, r := range reads {
			seen[r.built] = true
		}
		for k := 1; k < replays; k++ {
			again, againReads := simulateVector(t, seed)
			if !reflect.DeepEqual(trace, again) || !reflect.DeepEqual(reads, againReads) {
				t.Fatalf("seed %d: replay %d diverged", seed, k)
			}
		}
	}
	for _, built := range []int{0, 1, 2} {
		if !seen[built] {
			t.Errorf("no read was invoked with %d rows built; widen the seeds", built)
		}
	}
}

// TestVectorFirstWritesRace has every writer slot make its first
// additions, building its row, while another slot reads. Each read must
// cost n × buckets steps and never see a bucket shrink, the final read
// must hold every addition, and only the writers' rows may count in
// Resident. Run with -race, it also checks the row publication against
// the reader's loads.
func TestVectorFirstWritesRace(t *testing.T) {
	const writers, buckets, adds, trials = 8, 16, 40, 50
	const n = writers + 1
	for trial := 0; trial < trials; trial++ {
		f := prim.NewFactory(n)
		v, err := NewVector(f, buckets)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		var readErr string
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := f.Proc(writers)
			h := v.HistHandle(p)
			prev := make([]uint64, buckets)
			for {
				before := p.Steps()
				got := h.Read()
				if d := p.Steps() - before; d != n*buckets {
					readErr = "a read took the wrong number of steps"
					return
				}
				for b := range got {
					if got[b] < prev[b] {
						readErr = "a bucket shrank between reads"
						return
					}
				}
				prev = got
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
		var adders sync.WaitGroup
		for w := 0; w < writers; w++ {
			adders.Add(1)
			go func() {
				defer adders.Done()
				h := v.HistHandle(f.Proc(w))
				for j := 0; j < adds; j++ {
					h.AddN((w+j)%buckets, 1)
				}
			}()
		}
		adders.Wait()
		close(stop)
		wg.Wait()
		if readErr != "" {
			t.Fatalf("trial %d: %s", trial, readErr)
		}
		if got := f.Resident(); got != writers*buckets {
			t.Fatalf("trial %d: Resident %d, want %d (one row per writer)", trial, got, writers*buckets)
		}
		total := uint64(0)
		for _, c := range v.HistHandle(f.Proc(writers)).Read() {
			total += c
		}
		if total != writers*adds {
			t.Fatalf("trial %d: final read holds %d additions, want %d", trial, total, writers*adds)
		}
	}
}

// TestVectorAddIntoIsARead pins AddInto as a read: onto an accumulator
// that is not zero it adds ReadInto's totals (saturating), in ReadInto's
// steps. The states cover a vector with no row built and one with two
// of three rows built, read by a slot with no row; a production proc
// charges unbuilt rows at once, a gated sim.Machine proc reads them
// register by register, and the gated reads must take the same trace.
func TestVectorAddIntoIsARead(t *testing.T) {
	const n, buckets, reader = 3, 5, 1
	acc := []uint64{1, 0, ^uint64(0) - 1, 7, 0}
	wantSum := func(read []uint64) []uint64 {
		want := make([]uint64, buckets)
		for b := range want {
			want[b] = satmath.Add(acc[b], read[b])
		}
		return want
	}
	adds := func(write func(p int, b int, d uint64)) {
		write(0, 2, 3)
		write(0, 4, 1)
		write(2, 0, 5)
	}
	for _, built := range []bool{false, true} {
		f := prim.NewFactory(n)
		v, err := NewVector(f, buckets)
		if err != nil {
			t.Fatal(err)
		}
		hs := make([]object.HistHandle, n)
		for i := range hs {
			hs[i] = v.HistHandle(f.Proc(i))
		}
		if built {
			adds(func(p, b int, d uint64) { hs[p].AddN(b, d) })
		}
		p := f.Proc(reader)
		before := p.Steps()
		read := hs[reader].ReadInto(nil)
		readSteps := p.Steps() - before
		before = p.Steps()
		got := hs[reader].AddInto(slices.Clone(acc))
		if addSteps := p.Steps() - before; addSteps != readSteps || addSteps != n*buckets {
			t.Errorf("rows built %v: AddInto took %d steps, ReadInto %d, want %d each", built, addSteps, readSteps, n*buckets)
		}
		if want := wantSum(read); !slices.Equal(got, want) {
			t.Errorf("rows built %v: AddInto(%v) = %v, want %v (acc plus ReadInto's %v)", built, acc, got, want, read)
		}
	}

	// Gated: twin machines in one state, one reading with ReadInto and
	// one with AddInto.
	run := func(fold bool) ([]uint64, []prim.Event) {
		m := sim.NewMachine(n)
		v, err := NewVector(m.Factory(), buckets)
		if err != nil {
			t.Fatal(err)
		}
		hs := make([]object.HistHandle, n)
		for i := range hs {
			hs[i] = v.HistHandle(m.Proc(i))
		}
		adds(func(p, b int, d uint64) {
			m.Spawn(p, func(*prim.Proc) { hs[p].AddN(b, d) })
			m.RunSolo(p, 10)
		})
		var got []uint64
		m.Spawn(reader, func(*prim.Proc) {
			if fold {
				got = hs[reader].AddInto(slices.Clone(acc))
			} else {
				got = hs[reader].ReadInto(nil)
			}
		})
		m.RunSolo(reader, 10*n*buckets)
		return got, m.TraceOf(reader)
	}
	read, readTrace := run(false)
	got, addTrace := run(true)
	if len(readTrace) != n*buckets || !reflect.DeepEqual(addTrace, readTrace) {
		t.Errorf("gated: AddInto took %d steps, ReadInto %d, want the same %d-step trace", len(addTrace), len(readTrace), n*buckets)
	}
	if want := wantSum(read); !slices.Equal(got, want) {
		t.Errorf("gated: AddInto(%v) = %v, want %v (acc plus ReadInto's %v)", acc, got, want, read)
	}
}
