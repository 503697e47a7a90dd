package conformance

import (
	"testing"

	"approxobj/internal/core"
	"approxobj/internal/object"
	"approxobj/internal/prim"
)

// TestDeepConformance sweeps many more seeds and larger workloads than the
// default suites; it is skipped under -short. It is the long-haul soak for
// the linearizability of the paper's two algorithms under adversarial
// schedules, with and without crashes.
func TestDeepConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("deep conformance sweep skipped in -short mode")
	}
	t.Run("mult-counter", func(t *testing.T) {
		for _, k := range []uint64{2, 3} {
			mk := func(f *prim.Factory) (object.Counter, error) {
				return core.NewMultCounter(f, k)
			}
			for seed := int64(0); seed < 60; seed++ {
				crash := 0
				if seed%3 == 0 {
					crash = 1
				}
				w := Workload{Procs: 5, OpsPer: 60, ReadFrac: 0.35, Seed: seed, CrashProcs: crash}
				if k*k < 5 {
					w.Procs = 4 // keep k >= sqrt(n)
				}
				if err := SimCounter(mk, w, object.Accuracy{K: k}); err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
			}
		}
	})
	t.Run("kmult-maxreg", func(t *testing.T) {
		const m = uint64(1) << 24
		for _, k := range []uint64{2, 4} {
			mk := func(f *prim.Factory) (object.MaxReg, error) {
				return core.NewKMultMaxReg(f, m, k)
			}
			for seed := int64(0); seed < 60; seed++ {
				crash := 0
				if seed%4 == 0 {
					crash = 2
				}
				w := Workload{Procs: 5, OpsPer: 50, ReadFrac: 0.5, Seed: seed, MaxArg: m, CrashProcs: crash}
				if err := SimMaxRegister(mk, w, object.Accuracy{K: k}); err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
			}
		}
	})
	t.Run("kmult-unbounded-maxreg", func(t *testing.T) {
		mk := func(f *prim.Factory) (object.MaxReg, error) {
			return core.NewKMultUnboundedMaxReg(f, 3)
		}
		// Epoch registers are installed by the first write into their
		// epoch; crashes stop writers between installing an epoch and
		// writing the top register, which must stay invisible to reads.
		for seed := int64(0); seed < 40; seed++ {
			crash := 0
			if seed%4 == 0 {
				crash = 2
			}
			w := Workload{Procs: 4, OpsPer: 50, ReadFrac: 0.5, Seed: seed, MaxArg: 1 << 40, CrashProcs: crash}
			if err := SimMaxRegister(mk, w, object.Accuracy{K: 3}); err != nil {
				t.Fatal(err)
			}
		}
	})
}
