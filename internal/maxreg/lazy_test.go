package maxreg_test

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"approxobj/internal/core"
	"approxobj/internal/maxreg"
	"approxobj/internal/prim"
	"approxobj/internal/sim"
)

// registers counts the base objects reachable from an installed max
// register structure: what it should hold in the factory's Resident.
func registers(t *testing.T, r maxreg.BoundedMaxReg) uint64 {
	t.Helper()
	switch r := r.(type) {
	case *maxreg.Bounded:
		return maxreg.TreeRegisters(r)
	case *core.KMultMaxReg:
		return maxreg.TreeRegisters(r.M)
	case *maxreg.Unbounded:
		n := maxreg.TreeRegisters(maxreg.Top(r))
		for _, ep := range maxreg.Installed(r) {
			n += registers(t, ep)
		}
		return n
	}
	t.Fatalf("unknown max register %T", r)
	return 0
}

// plugins are the two unbounded constructions: the exact tree and the
// paper's Algorithm 2 (k = 2) plugged into the epoch split.
var plugins = []struct {
	name string
	k    uint64 // accuracy factor of a read: max <= read <= k*max
	mk   func(f *prim.Factory) (*maxreg.Unbounded, error)
}{
	{"exact", 1, func(f *prim.Factory) (*maxreg.Unbounded, error) { return maxreg.NewUnbounded(f, maxreg.ExactFactory) }},
	{"kmult", 2, func(f *prim.Factory) (*maxreg.Unbounded, error) { return core.NewKMultUnboundedMaxReg(f, 2) }},
}

// race runs body(i) on n goroutines released together.
func race(n int, body func(i int)) {
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	ready.Add(n)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			ready.Done()
			<-start
			body(i)
		}()
	}
	ready.Wait()
	close(start)
	done.Wait()
}

// TestUnboundedLazyEpochs checks the construction footprint: a fresh
// register holds only its top register's root, a write installs exactly
// the epoch its value falls in, reads install nothing, and Resident
// always equals the registers reachable from the installed structure.
func TestUnboundedLazyEpochs(t *testing.T) {
	for _, pl := range plugins {
		f := prim.NewFactory(1)
		p := f.Proc(0)
		u, err := pl.mk(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.Resident(); got != 1 {
			t.Fatalf("%s: fresh register holds %d base objects, want 1 (the top root)", pl.name, got)
		}
		u.Read(p)
		if got := f.Resident(); got != 1 {
			t.Fatalf("%s: a read of a fresh register built %d base objects", pl.name, got-1)
		}
		u.Write(p, 1) // epoch 0 holds only the value 1: no register
		u.Read(p)
		if eps := maxreg.Installed(u); len(eps) != 0 || maxreg.EpochTableBuilt(u) {
			t.Fatalf("%s: reads and Write(1) installed epochs %v or built the epoch table", pl.name, eps)
		}
		for _, step := range []struct {
			v      uint64
			epochs int // installed after the write
		}{
			{1 << 10, 1}, {1<<10 + 700, 1}, {1 << 40, 2}, {5, 3},
		} {
			u.Write(p, step.v)
			u.Read(p)
			if got := len(maxreg.Installed(u)); got != step.epochs {
				t.Fatalf("%s: after Write(%d): %d epochs installed, want %d", pl.name, step.v, got, step.epochs)
			}
			if got, want := f.Resident(), registers(t, u); got != want {
				t.Fatalf("%s: after Write(%d): Resident %d, reachable %d", pl.name, step.v, got, want)
			}
		}
	}
}

// TestUnboundedFirstWritesRace has n goroutines make the first writes
// of a fresh register at once, half into epoch e and half into e+1, so
// they race to build the epoch table and to install both epochs. One
// table and exactly one register per epoch must win, only their
// registers may count in Resident, and every later read must lie within
// the envelope of the maximum written. Run with -race, it also
// exercises the publishing CASes against the loads of concurrent
// operations.
func TestUnboundedFirstWritesRace(t *testing.T) {
	const n, trials = 8, 50
	const e = 20
	for _, pl := range plugins {
		for trial := 0; trial < trials; trial++ {
			f := prim.NewFactory(n)
			u, err := pl.mk(f)
			if err != nil {
				t.Fatal(err)
			}
			val := func(i int) uint64 { return 1<<(e+i%2) + uint64(i*997+trial) }
			race(n, func(i int) { u.Write(f.Proc(i), val(i)) })
			eps := maxreg.Installed(u)
			_, lo := eps[e]
			if _, hi := eps[e+1]; !lo || !hi || len(eps) != 2 {
				t.Fatalf("%s trial %d: installed epochs %v, want only %d and %d", pl.name, trial, eps, e, e+1)
			}
			if got, want := f.Resident(), registers(t, u); got != want {
				t.Fatalf("%s trial %d: Resident %d, reachable %d (a losing epoch was counted)", pl.name, trial, got, want)
			}
			hi := val(n - 1)
			for i := 0; i < n; i++ {
				if r := u.Read(f.Proc(i)); r < hi || r > pl.k*hi {
					t.Fatalf("%s trial %d: read %d outside [%d, %d]", pl.name, trial, r, hi, pl.k*hi)
				}
			}
		}
	}
}

// TestBoundedResidentRace has goroutines race the first operations on a
// fresh bounded register, materializing the same tree nodes at once: a
// node's register may count in Resident only if its CAS won, so Resident
// must equal the registers reachable from the root afterwards.
func TestBoundedResidentRace(t *testing.T) {
	const n, trials = 8, 200
	for trial := 0; trial < trials; trial++ {
		f := prim.NewFactory(n)
		b, err := maxreg.NewBounded(f, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		race(n, func(i int) {
			p := f.Proc(i)
			b.Read(p)
			for _, v := range []uint64{1<<15 - 1, 1<<16 - 1 - uint64(trial)} {
				b.Write(p, v)
				b.Read(p)
			}
		})
		if got, want := f.Resident(), maxreg.TreeRegisters(b); got != want {
			t.Fatalf("trial %d: Resident %d, reachable %d (a losing node was counted)", trial, got, want)
		}
	}
}

// TestBoundedUnbuiltReadsMatchSimulation is the differential check of
// the unbuilt-read rule. For every bound m in 1..300 and a random prefix
// of writes, each read on a production register (which charges an
// unbuilt left subtree's steps without building it) must return the
// same value and take the same steps as the same read by a gated
// process on sim.Machine (which reads switch by switch and builds the
// nodes it reads), and must build nothing.
func TestBoundedUnbuiltReadsMatchSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	type op struct{ val, steps uint64 }
	for m := uint64(1); m <= 300; m++ {
		writes := make([]uint64, rng.Intn(6))
		for i := range writes {
			writes[i] = uint64(rng.Int63n(int64(m)))
		}
		// run applies write i before read i+1, recording every
		// operation's result and steps, and the registers the reads
		// built in all.
		run := func(b *maxreg.Bounded, p *prim.Proc, f *prim.Factory) (ops []op, built uint64) {
			for i := 0; i <= len(writes); i++ {
				if i > 0 {
					before := p.Steps()
					b.Write(p, writes[i-1])
					ops = append(ops, op{writes[i-1], p.Steps() - before})
				}
				before, res := p.Steps(), f.Resident()
				v := b.Read(p)
				ops = append(ops, op{v, p.Steps() - before})
				built += f.Resident() - res
			}
			return ops, built
		}
		f := prim.NewFactory(1)
		prod, err := maxreg.NewBounded(f, m)
		if err != nil {
			t.Fatal(err)
		}
		got, built := run(prod, f.Proc(0), f)
		if built != 0 {
			t.Fatalf("m=%d, writes %v: production reads built %d registers", m, writes, built)
		}

		mach := sim.NewMachine(1)
		gated, err := maxreg.NewBounded(mach.Factory(), m)
		if err != nil {
			t.Fatal(err)
		}
		var want []op
		mach.Spawn(0, func(p *prim.Proc) { want, _ = run(gated, p, mach.Factory()) })
		mach.RunSolo(0, 1<<16)
		if len(got) != len(want) {
			t.Fatalf("m=%d, writes %v: %d production operations, %d simulated", m, writes, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("m=%d, writes %v: operation %d returned %d in %d steps, simulated %d in %d steps",
					m, writes, i, got[i].val, got[i].steps, want[i].val, want[i].steps)
			}
		}
	}
}

// TestUnboundedPluginFailurePanics checks the lazy build's error
// contract: NewUnbounded rejects a nil plug-in, and a plug-in that fails
// on a valid epoch size panics the operation that reaches the epoch.
func TestUnboundedPluginFailurePanics(t *testing.T) {
	f := prim.NewFactory(1)
	if _, err := maxreg.NewUnbounded(f, nil); err == nil {
		t.Fatal("NewUnbounded(nil) succeeded, want error")
	}
	u, err := maxreg.NewUnbounded(f, func(*prim.Factory, uint64) (maxreg.BoundedMaxReg, error) {
		return nil, errors.New("no room")
	})
	if err != nil {
		t.Fatal(err)
	}
	u.Write(f.Proc(0), 1) // epoch 0 needs no register
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "building epoch 3") || !strings.Contains(msg, "no room") {
			t.Fatalf("Write(8) with a failing plug-in: panic %q, want the epoch-3 build error", msg)
		}
	}()
	u.Write(f.Proc(0), 8)
}
