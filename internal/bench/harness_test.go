package bench

import (
	"math/rand"
	"testing"

	"approxobj"
)

// TestKindTableCoversKinds checks that every kind registered in the
// backend-plane table has exactly one row in the harness's kind table,
// so a new kind cannot be missing from the cross-kind experiments that
// iterate the table; TestAllExperimentsQuick checks that E17, E18 and
// E20r emit a record for every row.
func TestKindTableCoversKinds(t *testing.T) {
	kinds := approxobj.Kinds()
	if len(kindRows) != len(kinds) {
		t.Errorf("kind table has %d rows for %d registered kinds", len(kindRows), len(kinds))
	}
	for _, kp := range kinds {
		n := 0
		for _, row := range kindRows {
			if row.kind == kp.Kind {
				n++
			}
		}
		if n != 1 {
			t.Errorf("kind %q has %d rows in the kind table, want exactly 1", kp.Kind, n)
		}
	}
}

// TestKindRowsSettledRejectWrongTruth checks every row's quiescent
// check: after put(1..n) it accepts n and rejects true values outside
// the flushed envelope — 8x below and 8x above for every row (the
// widest, the counter's, is Multiplicative(2)), and off by one for the
// rows whose flushed check is exact.
func TestKindRowsSettledRejectWrongTruth(t *testing.T) {
	const n = 64
	for _, row := range kindRows {
		t.Run(row.name, func(t *testing.T) {
			o, err := row.open(nil)
			if err != nil {
				t.Fatal(err)
			}
			defer o.obj.Close()
			o.fill(n)
			if err := o.settled(n); err != nil {
				t.Fatalf("settled(%d) after put(1..%d): %v", n, n, err)
			}
			wrongs := []uint64{n / 8, 8 * n}
			if row.kind != approxobj.KindCounter {
				// The max-register and snapshot values and the
				// histogram's count are exact once flushed.
				wrongs = append(wrongs, n-1, n+1)
			}
			for _, wrong := range wrongs {
				if o.settled(wrong) == nil {
					t.Errorf("settled(%d) accepted after put(1..%d)", wrong, n)
				}
			}
		})
	}
}

// TestSweepSettledRejectsWrongTruth runs one small cell of each E12-E16
// sweep, checks its quiescent check accepts the truth its loops
// recorded, then corrupts that truth and checks the check rejects it.
func TestSweepSettledRejectsWrongTruth(t *testing.T) {
	// scale moves a recorded truth 1000x up, beyond any sweep's
	// envelope (the widest, E12's, is Multiplicative(16) = 256x apart).
	scale := func(vs []uint64) {
		for i := range vs {
			vs[i] *= 1000
		}
	}
	for _, tc := range []struct {
		name    string
		sw      sweep
		corrupt func(c sweepCell)
	}{
		{"E12 count", e12Sweep(), func(c sweepCell) { scale(c.(*counterCell).incs) }},
		{"E14 max", e14Sweep(), func(c sweepCell) { scale(c.(*maxRegisterCell).maxima) }},
		{"E15 component", e15Sweep(), func(c sweepCell) { c.(*snapshotCell).finals[1]++ }},
		{"E16 count", e16Sweep(), func(c sweepCell) {
			obs := c.(*histogramCell).observed
			obs[0] = obs[0][1:]
		}},
		{"E16 quantiles", e16Sweep(), func(c sweepCell) {
			for _, vs := range c.(*histogramCell).observed {
				scale(vs)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const gs = 2
			c, err := tc.sw.cell(gs, 2, 64)
			if err != nil {
				t.Fatal(err)
			}
			var reads [gs]uint64
			race(gs, func(i int) func() {
				return c.loop(i, 1000, rand.New(rand.NewSource(int64(i))), &reads[i])
			})
			if err := c.settled(); err != nil {
				t.Fatalf("quiescent check rejected the recorded truth: %v", err)
			}
			tc.corrupt(c)
			if c.settled() == nil {
				t.Fatal("quiescent check accepted a true value outside the flushed envelope")
			}
		})
	}
}
