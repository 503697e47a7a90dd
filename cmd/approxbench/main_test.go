package main

import (
	"strings"
	"testing"

	"approxobj"
	"approxobj/internal/bench"
)

// TestKindCoverageAccumulatesAllProblems drives the startup gate with a
// table that has several independent gaps and checks every one is
// reported — the gate must not stop at the first problem, so one
// fix-run cycle names all the missing scenarios.
func TestKindCoverageAccumulatesAllProblems(t *testing.T) {
	kinds := []approxobj.KindPolicy{
		{Kind: approxobj.KindCounter},                                                                                           // no scenario at all
		{Kind: approxobj.KindMaxRegister, BenchScenario: "E-nowhere"},                                                           // declared but unemitted
		{Kind: approxobj.KindSnapshot, BenchScenario: "E-ok", StaleTerm: "trails"},                                              // missing read scenario
		{Kind: approxobj.KindHistogram, BenchScenario: "E-ok", WindowTerm: "folds the last d"},                                  // missing window scenario
		{Kind: approxobj.KindCounter, BenchScenario: "E-ok", WindowTerm: "x", WindowBenchScenario: "E-no"},                      // window scenario unemitted
		{Kind: approxobj.KindCounter, BenchScenario: "E-ok", Accuracies: []string{"exact", "randomized"}},                       // missing frontier scenario
		{Kind: approxobj.KindCounter, BenchScenario: "E-ok", Accuracies: []string{"randomized"}, FrontierBenchScenario: "E-no"}, // frontier scenario unemitted
	}
	problems := kindCoverageProblems(kinds, map[string]bool{"E-ok": true})
	if len(problems) != 7 {
		t.Fatalf("want all 7 problems reported, got %d:\n%s", len(problems), strings.Join(problems, "\n"))
	}
	for i, want := range []string{
		"declares no bench scenario",
		`bench scenario "E-nowhere", which no experiment`,
		"declares no read-dominated bench scenario",
		"declares no windowed bench scenario",
		`window bench scenario "E-no", which no experiment`,
		"declares no deterministic-vs-randomized frontier bench scenario",
		`frontier bench scenario "E-no", which no experiment`,
	} {
		if !strings.Contains(problems[i], want) {
			t.Errorf("problem %d = %q, want it to mention %q", i, problems[i], want)
		}
	}
}

// TestKindCoverageCleanTable checks the real backend table against the
// real experiment declarations — the gate must pass on the shipped
// configuration.
func TestKindCoverageCleanTable(t *testing.T) {
	declared := map[string]bool{}
	for _, exp := range bench.All() {
		for _, sc := range exp.Scenarios {
			declared[sc] = true
		}
	}
	if problems := kindCoverageProblems(approxobj.Kinds(), declared); len(problems) > 0 {
		t.Fatalf("startup gate fails on the shipped table:\n%s", strings.Join(problems, "\n"))
	}
}

// TestCompareRecordsAccumulatesAllProblems checks that -compare reports
// every regression in one pass: a missing scenario, three widened
// envelope terms (including the float-valued Delta term), a steps/op
// regression, and the no-tolerance growth of base-object bytes (by a
// single byte) and of allocs/read (from 0) must all appear.
func TestCompareRecordsAccumulatesAllProblems(t *testing.T) {
	baseline := []bench.Record{
		{Scenario: "GONE", Params: map[string]string{"k": "1"}},
		{Scenario: "A", Params: map[string]string{"k": "1"}, Envelope: &bench.RecordEnvelope{Mult: 2, Window: 1000, Delta: 0.01}},
		{Scenario: "B", Params: map[string]string{"k": "1"}, StepsPerOp: 10},
		{Scenario: "C", Params: map[string]string{"k": "1"}, Bytes: 1120},
		{Scenario: "D", Params: map[string]string{"k": "1"}},
	}
	current := []bench.Record{
		{Scenario: "A", Params: map[string]string{"k": "1"}, Envelope: &bench.RecordEnvelope{Mult: 4, Window: 2000, Delta: 0.05}},
		{Scenario: "B", Params: map[string]string{"k": "1"}, StepsPerOp: 100},
		{Scenario: "C", Params: map[string]string{"k": "1"}, Bytes: 1121},
		{Scenario: "D", Params: map[string]string{"k": "1"}, AllocsPerRead: 0.01},
	}
	problems := compareRecords(baseline, current, 50, func(string) bool { return true })
	if len(problems) != 7 {
		t.Fatalf("want 7 problems (missing scenario, Mult, Window, Delta, steps, bytes, allocs/read), got %d:\n%s",
			len(problems), strings.Join(problems, "\n"))
	}
	for _, want := range []string{
		`baseline scenario "GONE" is missing`,
		"Mult widened 2 -> 4",
		"Window widened 1000 -> 2000",
		"Delta widened 0.01 -> 0.05",
		"steps/op regressed",
		"bytes grew 1120 -> 1121",
		"allocs/read regressed 0.00 -> 0.01",
	} {
		found := false
		for _, p := range problems {
			if strings.Contains(p, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no problem mentions %q:\n%s", want, strings.Join(problems, "\n"))
		}
	}
}

// TestCompareRunsModeMismatch checks that -compare refuses a baseline of
// the other mode with one message naming both modes, instead of flagging
// per-cell steps/op "regressions" that only reflect run length (a full
// E21 baseline read 0.0002 steps/op where a -quick run reads 0.0016).
// Runs of one mode still get the per-cell checks.
func TestCompareRunsModeMismatch(t *testing.T) {
	all := func(string) bool { return true }
	full := resultFile{Quick: false, Records: []bench.Record{
		{Scenario: "E21", Params: map[string]string{"batch": "64"}, StepsPerOp: 0.0002},
	}}
	quick := resultFile{Quick: true, Records: []bench.Record{
		{Scenario: "E21", Params: map[string]string{"batch": "64"}, StepsPerOp: 0.0016},
	}}
	for _, tc := range []struct{ base, run resultFile }{{full, quick}, {quick, full}} {
		problems := compareRuns(tc.base, tc.run, 50, all)
		if len(problems) != 1 {
			t.Fatalf("mode mismatch: want exactly one problem, got %d:\n%s", len(problems), strings.Join(problems, "\n"))
		}
		if p := problems[0]; !strings.Contains(p, "full") || !strings.Contains(p, "-quick") || strings.Contains(p, "steps/op") {
			t.Errorf("mode mismatch message %q must name both modes and no per-cell regression", p)
		}
	}
	same := quick
	same.Records = full.Records
	if problems := compareRuns(same, quick, 50, all); len(problems) != 1 || !strings.Contains(problems[0], "steps/op regressed") {
		t.Errorf("same-mode runs must still compare per cell, got %v", problems)
	}
}

// TestCompareRecordsClean checks the no-regression path: identical
// records produce no problems.
func TestCompareRecordsClean(t *testing.T) {
	recs := []bench.Record{
		{Scenario: "A", Params: map[string]string{"k": "1"}, Envelope: &bench.RecordEnvelope{Mult: 2, Stale: 5, Window: 7}, StepsPerOp: 3, Bytes: 8, AllocsPerRead: 0.5},
	}
	if problems := compareRecords(recs, recs, 50, func(string) bool { return true }); len(problems) != 0 {
		t.Fatalf("identical records flagged: %v", problems)
	}
}
