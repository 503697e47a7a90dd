// Command approxbench regenerates every experiment table of the
// reproduction (-list prints the experiment index; the committed
// BENCH_pr*.json files record the results).
//
// Usage:
//
//	approxbench [-quick] [-seed 42] [-exp e1,e3,f1] [-json out.json]
//	approxbench [-compare old.json] [-compare-tol 50]
//	approxbench [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-trace trace.out]
//	approxbench -list
//
// Without -exp it runs everything; unknown experiment ids are an error
// (exit status 2, with the registered ids on stderr). -list prints the
// registered experiments and exits. -quick shrinks parameter sweeps for a
// fast smoke run. -seed sets the base seed every scenario RNG derives
// from (default 0), so two runs with the same -seed and -quick drive
// identical operation sequences and their -json records are reproducible
// run-to-run up to machine timing. -json additionally writes the
// machine-readable records of the selected experiments (scenario, params,
// ns/op, steps/op, envelope) to the given file, so successive runs leave
// a diffable measurement trajectory. The set of scenarios in that
// trajectory is derived from the experiment table (bench.All declares
// each experiment's record scenarios), not kept by hand here: a run whose
// output is missing a declared scenario exits 1 instead of silently
// dropping it from the trajectory — and a run starts by cross-checking
// the backend-plane table (approxobj.Kinds) against those declarations,
// exiting 1 if any registered object kind lacks a declared-and-emitted
// bench scenario (including the read-plane and windowed scenarios of
// kinds documenting those policies), so a new kind cannot ship without
// a measured workload. Every coverage gap is reported before exiting,
// not just the first.
//
// -compare diffs this run's records against a committed record file and
// exits 1 on regressions, which makes BENCH_*.json files checkable
// instead of write-only. A baseline of the other mode (-quick against a
// full run, or the reverse) is refused outright: amortized steps/op
// depends on run length, so such a pair compares nothing. Otherwise
// five checks run, all on machine-independent
// data: (1) every scenario present in the baseline must be emitted by
// this run — a superset is fine (new scenarios accrue), a missing one is
// a lost trajectory (on an -exp subset, only scenarios the selected
// experiments declare are in scope); (2) for records matching on
// (scenario, params), the accuracy envelope must not widen AT ALL on
// any term — envelopes are deterministic, so any widening means the
// configuration got less accurate and no tolerance applies; (3) for
// matched records carrying steps/op, the step count must not regress by
// more than -compare-tol percent (steps count shared-memory primitives,
// not wall-clock, but scheduling still jitters them slightly); (4) for
// matched records, allocations per read (E20r) must not increase at all
// — the zero-allocation read path is a designed property like the
// envelope, so a read that starts allocating is a regression with no
// tolerance, not timing noise; (5) for matched records, base-object
// bytes (E19) must not grow at all — the space measure is deterministic
// like the envelope, so any growth is a regression with no tolerance.
// Records whose (scenario, params) only exist on one side — e.g. sweep
// cells sized by GOMAXPROCS on a different machine — are skipped; ns/op
// is never compared (timing is machine noise).
//
// -cpuprofile and -memprofile write pprof profiles of the selected
// experiments (the heap profile is taken at exit, after every
// experiment has run), for digging into regressions the record
// trajectory flags: `go tool pprof cpu.pprof`. -trace writes a
// runtime/trace execution trace of the same span, for scheduler-level
// questions the sampling profiler cannot answer (combiner goroutine
// wakeups, epoch-rotation timing, handle-pool contention): `go tool
// trace trace.out`. CPU profiling and execution tracing can run
// together; keep traced runs short (-quick, a narrow -exp) — traces
// record every event, so files grow with runtime.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"strings"
	"time"

	"approxobj"
	"approxobj/internal/bench"
)

// resultFile is the schema of the -json output. Records appear in
// deterministic order (experiment order of bench.All, row order within
// each experiment), so files from identical configurations diff cleanly.
// Seed records the base RNG seed the run used, so a record file names the
// operation sequences that produced it.
type resultFile struct {
	Quick   bool           `json:"quick"`
	Seed    int64          `json:"seed"`
	Records []bench.Record `json:"records"`
}

func main() {
	quick := flag.Bool("quick", false, "shrink parameter sweeps for a fast run")
	seed := flag.Int64("seed", 0, "base seed for scenario RNGs; same seed => identical operation sequences, so -json records reproduce run-to-run")
	exps := flag.String("exp", "all", "comma-separated experiment ids (see -list) or 'all'")
	list := flag.Bool("list", false, "list registered experiments and exit")
	jsonOut := flag.String("json", "", "write machine-readable records to this file")
	compare := flag.String("compare", "", "diff this run's records against this baseline record file; exit 1 on missing scenarios or regressions")
	compareTol := flag.Float64("compare-tol", 50, "max percent regression -compare tolerates on steps/op (envelope widening is never tolerated)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (taken at exit) to this file")
	traceOut := flag.String("trace", "", "write a runtime/trace execution trace of the selected experiments to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "approxbench: creating %s: %v\n", *cpuProfile, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "approxbench: starting CPU profile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "approxbench: creating %s: %v\n", *traceOut, err)
			os.Exit(1)
		}
		if err := trace.Start(f); err != nil {
			fmt.Fprintf(os.Stderr, "approxbench: starting execution trace: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			trace.Stop()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "approxbench: creating %s: %v\n", *memProfile, err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "approxbench: writing heap profile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	all := bench.All()
	if *list {
		for _, exp := range all {
			fmt.Printf("%-5s %s\n", exp.ID, exp.Desc)
		}
		return
	}

	// Every kind registered in the backend-plane table must be covered by
	// a declared bench scenario: a new object family without a measured
	// workload fails the smoke run, not a code review. (-list is exempt
	// above — it is the diagnostic you would reach for.) All coverage
	// gaps are collected and reported together — a run with three
	// missing scenarios names all three, not the first, so one fix-run
	// cycle suffices.
	declared := map[string]bool{}
	for _, exp := range all {
		for _, sc := range exp.Scenarios {
			declared[sc] = true
		}
	}
	if problems := kindCoverageProblems(approxobj.Kinds(), declared); len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "approxbench: %s\n", p)
		}
		os.Exit(1)
	}

	known := make(map[string]bool, len(all))
	ids := make([]string, 0, len(all))
	for _, exp := range all {
		known[exp.ID] = true
		ids = append(ids, exp.ID)
	}

	selected := map[string]bool{}
	runAll := false
	for _, id := range strings.Split(*exps, ",") {
		id = strings.TrimSpace(strings.ToLower(id))
		if id == "" {
			continue
		}
		if id == "all" {
			runAll = true
			continue
		}
		if !known[id] {
			fmt.Fprintf(os.Stderr, "approxbench: unknown experiment %q\nusage: approxbench [-quick] [-seed n] [-exp %s | all] [-json out.json]\nrun 'approxbench -list' for descriptions\n",
				id, strings.Join(ids, ","))
			os.Exit(2)
		}
		selected[id] = true
	}
	if !runAll && len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "approxbench: -exp selects no experiment\nrun 'approxbench -list' for the registered ids\n")
		os.Exit(2)
	}

	cfg := bench.Config{Quick: *quick, Seed: *seed}
	out := resultFile{Quick: *quick, Seed: *seed, Records: []bench.Record{}}
	for _, exp := range all {
		if !runAll && !selected[exp.ID] {
			continue
		}
		start := time.Now()
		tables, err := exp.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "approxbench: %s: %v\n", exp.ID, err)
			os.Exit(1)
		}
		emitted := map[string]bool{}
		for _, t := range tables {
			t.Fprint(os.Stdout)
			out.Records = append(out.Records, t.Records...)
			for _, r := range t.Records {
				emitted[r.Scenario] = true
			}
		}
		// The record set is derived from the experiment table (bench.All):
		// an experiment that stops emitting a scenario it declares would
		// silently drop that scenario from the measurement trajectory, so
		// it is an error, not a shrug.
		for _, sc := range exp.Scenarios {
			if !emitted[sc] {
				fmt.Fprintf(os.Stderr, "approxbench: %s emitted no records for declared scenario %q (trajectory would lose it)\n", exp.ID, sc)
				os.Exit(1)
			}
		}
		fmt.Printf("# %s finished in %v\n\n", exp.ID, time.Since(start).Round(time.Millisecond))
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "approxbench: encoding records: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "approxbench: writing %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("# wrote %d records to %s\n", len(out.Records), *jsonOut)
	}
	if *compare != "" {
		data, err := os.ReadFile(*compare)
		if err != nil {
			fmt.Fprintf(os.Stderr, "approxbench: reading baseline %s: %v\n", *compare, err)
			os.Exit(1)
		}
		var base resultFile
		if err := json.Unmarshal(data, &base); err != nil {
			fmt.Fprintf(os.Stderr, "approxbench: parsing baseline %s: %v\n", *compare, err)
			os.Exit(1)
		}
		// On a full run, every baseline scenario must reappear (one dropped
		// from the experiment table is a lost trajectory). On an -exp
		// subset, only scenarios the selected experiments declare are in
		// scope — comparing e16 alone must not flag e1's records missing.
		inScope := func(string) bool { return true }
		if !runAll {
			ran := map[string]bool{}
			for _, exp := range all {
				if selected[exp.ID] {
					for _, sc := range exp.Scenarios {
						ran[sc] = true
					}
				}
			}
			inScope = func(sc string) bool { return ran[sc] }
		}
		problems := compareRuns(base, out, *compareTol, inScope)
		if len(problems) > 0 {
			for _, p := range problems {
				fmt.Fprintf(os.Stderr, "approxbench: compare vs %s: %s\n", *compare, p)
			}
			os.Exit(1)
		}
		fmt.Printf("# compare: no regressions against %s (%d baseline records, tolerance %.0f%%)\n",
			*compare, len(base.Records), *compareTol)
	}
}

// kindCoverageProblems cross-checks the backend-plane table against the
// declared bench scenarios and returns every gap it finds (never
// stopping at the first): each kind needs an emitted BenchScenario,
// each kind documenting a staleness term needs an emitted
// ReadBenchScenario, each kind documenting a window term needs an
// emitted WindowBenchScenario, and each kind supporting the randomized
// accuracy needs an emitted FrontierBenchScenario.
func kindCoverageProblems(kinds []approxobj.KindPolicy, declared map[string]bool) []string {
	var problems []string
	add := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	for _, kp := range kinds {
		if kp.BenchScenario == "" {
			add("object kind %q declares no bench scenario in the backend table", kp.Kind)
		} else if !declared[kp.BenchScenario] {
			add("object kind %q declares bench scenario %q, which no experiment in bench.All emits", kp.Kind, kp.BenchScenario)
		}
		// A kind that opts into the read-cache policy (it documents a
		// staleness term) must also name a read-dominated scenario that
		// some experiment emits, so the O(1) cached-read claim is
		// measured, not assumed.
		if kp.StaleTerm != "" {
			if kp.ReadBenchScenario == "" {
				add("object kind %q documents a read-cache staleness term but declares no read-dominated bench scenario", kp.Kind)
			} else if !declared[kp.ReadBenchScenario] {
				add("object kind %q declares read bench scenario %q, which no experiment in bench.All emits", kp.Kind, kp.ReadBenchScenario)
			}
		}
		// Likewise for window support: a kind documenting a window term
		// must name an emitted windowed observe+scrape scenario.
		if kp.WindowTerm != "" {
			if kp.WindowBenchScenario == "" {
				add("object kind %q documents a window term but declares no windowed bench scenario", kp.Kind)
			} else if !declared[kp.WindowBenchScenario] {
				add("object kind %q declares window bench scenario %q, which no experiment in bench.All emits", kp.Kind, kp.WindowBenchScenario)
			}
		}
		// And for the accuracy plane: a kind whose row set includes the
		// randomized accuracy must name an emitted frontier scenario, so
		// the deterministic-vs-randomized cost comparison (the paper's
		// central contrast) is measured whenever the choice exists.
		for _, acc := range kp.Accuracies {
			if acc != "randomized" {
				continue
			}
			if kp.FrontierBenchScenario == "" {
				add("object kind %q supports the randomized accuracy but declares no deterministic-vs-randomized frontier bench scenario", kp.Kind)
			} else if !declared[kp.FrontierBenchScenario] {
				add("object kind %q declares frontier bench scenario %q, which no experiment in bench.All emits", kp.Kind, kp.FrontierBenchScenario)
			}
		}
	}
	return problems
}

// recordKey identifies a record cell across runs: its scenario plus its
// params in sorted order.
func recordKey(r bench.Record) string {
	keys := make([]string, 0, len(r.Params))
	for k := range r.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(r.Scenario)
	for _, k := range keys {
		fmt.Fprintf(&b, "|%s=%s", k, r.Params[k])
	}
	return b.String()
}

// compareRuns checks a run against a baseline record file. Records are
// comparable only between runs of one mode: amortized steps/op depends
// on run length, so a -quick run against a full baseline (or the
// reverse) would flag false per-cell regressions. A mode mismatch is
// therefore the one problem reported, and the per-cell checks are
// skipped.
func compareRuns(base, run resultFile, tol float64, inScope func(string) bool) []string {
	if base.Quick != run.Quick {
		return []string{fmt.Sprintf("baseline is a %s run but this is a %s run; records compare only within one mode (compare against a %s baseline)",
			runMode(base.Quick), runMode(run.Quick), runMode(run.Quick))}
	}
	return compareRecords(base.Records, run.Records, tol, inScope)
}

// runMode names a record file's mode for compareRuns' message.
func runMode(quick bool) string {
	if quick {
		return "-quick"
	}
	return "full"
}

// compareRecords diffs a run's records against a baseline: every
// baseline scenario inScope must be present, and cells matched by
// (scenario, params) must not widen any envelope term, grow in bytes or
// allocs/read at all, or regress on steps/op beyond tol percent. Cells
// present on only one side are skipped — sweep coordinates can
// legitimately differ between machines — and ns/op is never compared.
func compareRecords(baseline, current []bench.Record, tol float64, inScope func(string) bool) []string {
	var problems []string
	curScenarios := map[string]bool{}
	curByKey := map[string]bench.Record{}
	for _, r := range current {
		curScenarios[r.Scenario] = true
		curByKey[recordKey(r)] = r
	}
	seen := map[string]bool{}
	for _, o := range baseline {
		if !seen[o.Scenario] {
			seen[o.Scenario] = true
			if inScope(o.Scenario) && !curScenarios[o.Scenario] {
				problems = append(problems, fmt.Sprintf("baseline scenario %q is missing from this run", o.Scenario))
			}
		}
		n, ok := curByKey[recordKey(o)]
		if !ok {
			continue
		}
		// regressed reports whether a value grew beyond the tolerance.
		// Growth from zero has no relative scale: any growth regresses.
		regressed := func(old, new float64) bool {
			if new <= old {
				return false
			}
			if old == 0 {
				return true
			}
			return new > old*(1+tol/100)
		}
		if o.Envelope != nil && n.Envelope != nil {
			for _, term := range []struct {
				name     string
				old, new uint64
			}{
				{"Mult", o.Envelope.Mult, n.Envelope.Mult},
				{"Add", o.Envelope.Add, n.Envelope.Add},
				{"Buffer", o.Envelope.Buffer, n.Envelope.Buffer},
				{"Stale", o.Envelope.Stale, n.Envelope.Stale},
				{"Window", o.Envelope.Window, n.Envelope.Window},
			} {
				// Envelopes are deterministic — no machine noise to
				// tolerate — so ANY widening is an accuracy regression;
				// the tolerance applies only to the measured steps/op.
				if term.new > term.old {
					problems = append(problems, fmt.Sprintf(
						"%s: envelope %s widened %d -> %d (accuracy regression)",
						recordKey(o), term.name, term.old, term.new))
				}
			}
			// Delta is the envelope's failure probability — float-valued,
			// but just as contractual: a larger Delta means the same reads
			// hold with lower confidence, so it never widens either.
			if n.Envelope.Delta > o.Envelope.Delta {
				problems = append(problems, fmt.Sprintf(
					"%s: envelope Delta widened %g -> %g (accuracy regression)",
					recordKey(o), o.Envelope.Delta, n.Envelope.Delta))
			}
		}
		if o.StepsPerOp > 0 && n.StepsPerOp > 0 && regressed(o.StepsPerOp, n.StepsPerOp) {
			problems = append(problems, fmt.Sprintf(
				"%s: steps/op regressed %.4f -> %.4f (more than %.0f%%)",
				recordKey(o), o.StepsPerOp, n.StepsPerOp, tol))
		}
		// Allocations per read are designed, not timed — the read paths
		// reuse handle scratch, so the counts are machine-independent
		// (E20r rounds away stray process-global noise). Any increase is
		// a regression with no tolerance, exactly like envelope widening;
		// in particular a baseline of 0 must stay 0.
		if n.AllocsPerRead > o.AllocsPerRead {
			problems = append(problems, fmt.Sprintf(
				"%s: allocs/read regressed %.2f -> %.2f (read-path allocation regression)",
				recordKey(o), o.AllocsPerRead, n.AllocsPerRead))
		}
		// Base-object bytes are the paper's space measure, counted, not
		// timed: any growth is a space regression, with no tolerance.
		if n.Bytes > o.Bytes {
			problems = append(problems, fmt.Sprintf(
				"%s: bytes grew %d -> %d (space regression)",
				recordKey(o), o.Bytes, n.Bytes))
		}
	}
	return problems
}
