package bench

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"approxobj"
)

// kindTableProblems checks a kind table against the registered kinds
// and the record scenarios exps declare, and returns every problem, not
// only the first: each registered kind needs exactly one row, each row
// a registered kind and a declared sweep scenario, and a row whose kind
// has a randomized accuracy row a declared frontier scenario.
func kindTableProblems(rows []kindRow, kinds []approxobj.KindPolicy, exps []Experiment) []string {
	declared := map[string]bool{}
	for _, exp := range exps {
		for _, sc := range exp.Scenarios {
			declared[sc] = true
		}
	}
	policies := map[approxobj.Kind]approxobj.KindPolicy{}
	for _, kp := range kinds {
		policies[kp.Kind] = kp
	}
	var problems []string
	add := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	rowsOf := map[approxobj.Kind]int{}
	for _, row := range rows {
		rowsOf[row.kind]++
		kp, ok := policies[row.kind]
		if !ok {
			add("row %q is for kind %q, which approxobj.Kinds does not register", row.name, row.kind)
		}
		if id := row.sweep().id; !declared[id] {
			add("row %q names sweep scenario %q, which no experiment in All declares", row.name, id)
		}
		if slices.Contains(kp.Accuracies, "randomized") && !declared[row.frontier] {
			add("row %q: kind %q has a randomized accuracy row, but frontier scenario %q is not declared in All", row.name, row.kind, row.frontier)
		}
	}
	for _, kp := range kinds {
		if n := rowsOf[kp.Kind]; n != 1 {
			add("kind %q has %d rows in the kind table, want exactly 1", kp.Kind, n)
		}
	}
	return problems
}

// TestKindTableCoversKinds checks the kind table against the backend
// table and the experiment table (see kindTableProblems), so a new kind
// is missing from neither the cross-kind experiments nor its own;
// TestAllExperimentsQuick checks that E17, E18 and E20r emit a record
// for every row.
func TestKindTableCoversKinds(t *testing.T) {
	if len(approxobj.Kinds()) == 0 {
		t.Fatal("backend table registers no kinds")
	}
	for _, p := range kindTableProblems(kindRows, approxobj.Kinds(), All()) {
		t.Error(p)
	}
}

// TestKindTableProblemsReportsEveryFault feeds kindTableProblems a
// table with one fault per rule and checks that each is reported.
func TestKindTableProblemsReportsEveryFault(t *testing.T) {
	kinds := []approxobj.KindPolicy{
		{Kind: approxobj.KindCounter, Accuracies: []string{"exact", "randomized"}},
		{Kind: approxobj.KindMaxRegister},
		{Kind: approxobj.KindSnapshot},
		{Kind: approxobj.KindHistogram},
	}
	rows := []kindRow{
		{name: "counter", kind: approxobj.KindCounter, sweep: e12Sweep}, // randomized, no frontier
		{name: "max-register", kind: approxobj.KindMaxRegister, sweep: e14Sweep},
		{name: "max-register", kind: approxobj.KindMaxRegister, sweep: e14Sweep},                          // duplicate
		{name: "snapshot", kind: approxobj.KindSnapshot, sweep: func() sweep { return sweep{id: "E99"} }}, // undeclared sweep
		{name: "bloom", kind: approxobj.Kind(99), sweep: e12Sweep},                                        // unregistered kind
		// no histogram row
	}
	problems := kindTableProblems(rows, kinds, All())
	want := []string{
		`kind "histogram" has 0 rows`,
		`kind "max register" has 2 rows`,
		`sweep scenario "E99", which no experiment`,
		`row "counter": kind "counter" has a randomized accuracy row, but frontier scenario ""`,
		`row "bloom" is for kind "invalid"`,
	}
	if len(problems) != len(want) {
		t.Fatalf("want %d problems, got %d:\n%s", len(want), len(problems), strings.Join(problems, "\n"))
	}
	for _, w := range want {
		if !slices.ContainsFunc(problems, func(p string) bool { return strings.Contains(p, w) }) {
			t.Errorf("no problem mentions %q:\n%s", w, strings.Join(problems, "\n"))
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
