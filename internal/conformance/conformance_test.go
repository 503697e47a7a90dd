package conformance

import (
	"testing"

	"approxobj/internal/core"
	"approxobj/internal/counter"
	"approxobj/internal/maxreg"
	"approxobj/internal/object"
	"approxobj/internal/prim"
)

// exactCounters enumerates the exact counter constructors.
func exactCounters() map[string]func(f *prim.Factory) (object.Counter, error) {
	return map[string]func(f *prim.Factory) (object.Counter, error){
		"collect":  func(f *prim.Factory) (object.Counter, error) { return counter.NewCollect(f) },
		"snapshot": func(f *prim.Factory) (object.Counter, error) { return counter.NewSnapshotCounter(f) },
		"aach":     func(f *prim.Factory) (object.Counter, error) { return counter.NewAACH(f) },
	}
}

func multCounter(k uint64, opts ...core.Option) func(f *prim.Factory) (object.Counter, error) {
	return func(f *prim.Factory) (object.Counter, error) {
		return core.NewMultCounter(f, k, opts...)
	}
}

func TestSimExactCountersLinearizable(t *testing.T) {
	for name, mk := range exactCounters() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 12; seed++ {
				w := Workload{Procs: 3, OpsPer: 25, ReadFrac: 0.4, Seed: seed}
				if err := Sim(Counter(mk, object.ExactBounds()), w); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		})
	}
}

func TestSimMultCounterWithinEnvelope(t *testing.T) {
	for _, k := range []uint64{2, 3, 5} {
		for seed := int64(0); seed < 12; seed++ {
			w := Workload{Procs: 4, OpsPer: 30, ReadFrac: 0.35, Seed: seed}
			if err := Sim(Counter(multCounter(k), object.Bounds{Mult: k}), w); err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
		}
	}
}

// TestSimVerbatimMultCounterViolates shows the conformance harness catching
// the paper's Claim III.6 boundary gap under adversarial schedules: with
// t1 = k (verbatim), n = 4 and k = 2, some interleavings return responses
// outside the 2-multiplicative envelope. The repaired default passes the
// identical workloads (previous test).
func TestSimVerbatimMultCounterViolates(t *testing.T) {
	found := false
	for seed := int64(0); seed < 300 && !found; seed++ {
		w := Workload{Procs: 4, OpsPer: 30, ReadFrac: 0.35, Seed: seed}
		if err := Sim(Counter(multCounter(2, core.Verbatim()), object.Bounds{Mult: 2}), w); err != nil {
			found = true
			t.Logf("violation reproduced: %v", err)
		}
	}
	if !found {
		t.Fatal("no seed exposed the verbatim boundary violation (did the repair leak into Verbatim mode?)")
	}
}

func TestSimCountersWithCrashes(t *testing.T) {
	mks := exactCounters()
	mks["mult-k3"] = multCounter(3)
	for name, mk := range mks {
		t.Run(name, func(t *testing.T) {
			acc := object.ExactBounds()
			if name == "mult-k3" {
				acc = object.Bounds{Mult: 3}
			}
			for seed := int64(0); seed < 10; seed++ {
				w := Workload{Procs: 4, OpsPer: 25, ReadFrac: 0.4, Seed: seed, CrashProcs: 2}
				if err := Sim(Counter(mk, acc), w); err != nil {
					t.Fatalf("%s with crashes: %v", name, err)
				}
			}
		})
	}
}

func TestHWCountersLinearizable(t *testing.T) {
	mks := exactCounters()
	for name, mk := range mks {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				w := Workload{Procs: 8, OpsPer: 150, ReadFrac: 0.3, Seed: seed}
				if err := HW(Counter(mk, object.ExactBounds()), w); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		})
	}
}

func TestHWMultCounterWithinEnvelope(t *testing.T) {
	for _, k := range []uint64{3, 4} {
		for seed := int64(0); seed < 4; seed++ {
			w := Workload{Procs: 8, OpsPer: 300, ReadFrac: 0.3, Seed: seed}
			if err := HW(Counter(multCounter(k), object.Bounds{Mult: k}), w); err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
		}
	}
}

// Max registers.

func maxRegs(m uint64, k uint64) map[string]System {
	return map[string]System{
		"bounded-exact": MaxRegister(func(f *prim.Factory) (object.MaxReg, error) { return maxreg.NewBounded(f, m) },
			object.ExactBounds()),
		"kmult-bounded": MaxRegister(func(f *prim.Factory) (object.MaxReg, error) { return core.NewKMultMaxReg(f, m, k) },
			object.Bounds{Mult: k}),
		"unbounded-exact": MaxRegister(func(f *prim.Factory) (object.MaxReg, error) { return maxreg.NewUnbounded(f, maxreg.ExactFactory) },
			object.ExactBounds()),
		"kmult-unbounded": MaxRegister(func(f *prim.Factory) (object.MaxReg, error) { return core.NewKMultUnboundedMaxReg(f, k) },
			object.Bounds{Mult: k}),
	}
}

func TestSimMaxRegistersLinearizable(t *testing.T) {
	for name, sys := range maxRegs(1024, 2) {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 12; seed++ {
				w := Workload{Procs: 3, OpsPer: 25, ReadFrac: 0.5, Seed: seed, MaxArg: 1024}
				if err := Sim(sys, w); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		})
	}
}

func TestSimMaxRegistersWithCrashes(t *testing.T) {
	for name, sys := range maxRegs(512, 4) {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 10; seed++ {
				w := Workload{Procs: 4, OpsPer: 20, ReadFrac: 0.5, Seed: seed, MaxArg: 512, CrashProcs: 2}
				if err := Sim(sys, w); err != nil {
					t.Fatalf("%s with crashes: %v", name, err)
				}
			}
		})
	}
}

func TestHWMaxRegistersLinearizable(t *testing.T) {
	for name, sys := range maxRegs(1<<20, 3) {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				w := Workload{Procs: 8, OpsPer: 150, ReadFrac: 0.4, Seed: seed, MaxArg: 1 << 20}
				if err := HW(sys, w); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		})
	}
}

func TestWorkloadScriptDeterministic(t *testing.T) {
	w := Workload{Procs: 3, OpsPer: 50, ReadFrac: 0.5, Seed: 9, MaxArg: 100}
	a, b := w.script(false), w.script(false)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("script not deterministic")
			}
		}
	}
}

func TestSimCASCounterLinearizable(t *testing.T) {
	mk := func(f *prim.Factory) (object.Counter, error) { return counter.NewCASCounter(f) }
	for seed := int64(0); seed < 12; seed++ {
		w := Workload{Procs: 3, OpsPer: 25, ReadFrac: 0.4, Seed: seed}
		if err := Sim(Counter(mk, object.ExactBounds()), w); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSimAdditiveCounterWithinEnvelope(t *testing.T) {
	for _, k := range []uint64{4, 16, 64} {
		mk := func(f *prim.Factory) (object.Counter, error) { return counter.NewAdditive(f, k) }
		for seed := int64(0); seed < 8; seed++ {
			w := Workload{Procs: 4, OpsPer: 30, ReadFrac: 0.35, Seed: seed}
			if err := Sim(Counter(mk, object.Bounds{Mult: 1, Add: k}), w); err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
		}
	}
}

func TestSimAdditiveTooTightEnvelopeRejected(t *testing.T) {
	// Sanity that the additive checker has teeth: a 64-additive counter
	// checked against a 0-additive (exact) envelope must fail on some
	// schedule.
	mk := func(f *prim.Factory) (object.Counter, error) { return counter.NewAdditive(f, 64) }
	found := false
	for seed := int64(0); seed < 40 && !found; seed++ {
		w := Workload{Procs: 4, OpsPer: 40, ReadFrac: 0.3, Seed: seed}
		if err := Sim(Counter(mk, object.Bounds{Mult: 1, Add: 0}), w); err != nil {
			found = true
		}
	}
	if !found {
		t.Fatal("no schedule exposed the additive slack against an exact envelope")
	}
}

func TestHWCASCounterLinearizable(t *testing.T) {
	mk := func(f *prim.Factory) (object.Counter, error) { return counter.NewCASCounter(f) }
	for seed := int64(0); seed < 3; seed++ {
		w := Workload{Procs: 8, OpsPer: 150, ReadFrac: 0.3, Seed: seed}
		if err := HW(Counter(mk, object.ExactBounds()), w); err != nil {
			t.Fatal(err)
		}
	}
}
