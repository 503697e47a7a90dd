// Package bench is the experiment harness: it regenerates, as text tables,
// every result of the paper's evaluation (each theorem's bound plus the
// Figure 1 boundary cases). cmd/approxbench prints all tables; All
// indexes the experiment IDs (approxbench -list prints them), and the
// committed BENCH_pr*.json files record the measured outputs.
package bench

import (
	"fmt"
	"io"
	"strings"

	"approxobj"
)

// Record is one machine-readable measurement, emitted alongside the
// rendered table for cmd/approxbench's -json output. The schema is stable
// across PRs so result files can be diffed over time: Scenario names the
// experiment row source (a table ID), Params the sweep coordinates, and
// the metric fields are zero when the experiment does not measure them.
// Envelope, when set, records the cell's configured accuracy envelope —
// unlike the timing metrics it is machine-independent, so
// cmd/approxbench's -compare mode can flag envelope regressions between
// record files exactly.
type Record struct {
	Scenario   string            `json:"scenario"`
	Params     map[string]string `json:"params,omitempty"`
	NsPerOp    float64           `json:"ns_per_op,omitempty"`
	StepsPerOp float64           `json:"steps_per_op,omitempty"`
	// Bytes is the cell's base-object space (8 bytes per allocated base
	// object, the paper's space measure) — machine-independent, like the
	// envelope; the frontier experiment (E19) reports it so the
	// deterministic-vs-randomized space gap is tracked across PRs.
	Bytes uint64 `json:"bytes,omitempty"`
	// AllocsPerRead is the heap allocations per read operation (E20r) —
	// machine-independent, like the envelope, because the read paths are
	// designed to reuse the reader's buffers: cached scalar reads must
	// report 0, and -compare treats any increase as a regression.
	AllocsPerRead float64         `json:"allocs_per_read,omitempty"`
	Envelope      *RecordEnvelope `json:"envelope,omitempty"`
}

// RecordEnvelope is the machine-readable form of a cell's accuracy
// envelope (approxobj.Bounds): a read may return any x with
// (v-Buffer)/Mult - Add <= x <= Mult*v + Add against a true value v.
type RecordEnvelope struct {
	Mult   uint64 `json:"mult"`
	Add    uint64 `json:"add"`
	Buffer uint64 `json:"buffer"`
	// Stale is the read-cache staleness window in nanoseconds (0 when
	// the cell runs uncached); like the other terms it is configured,
	// not measured, so -compare treats any widening as a regression.
	Stale uint64 `json:"stale_ns,omitempty"`
	// Window is the epoch-truncation skew of windowed cells in
	// nanoseconds — d/n for WithWindow(d, n), 0 for cumulative cells.
	// Configured like Stale, so -compare flags widening exactly.
	Window uint64 `json:"window_ns,omitempty"`
	// Delta is the envelope's failure probability (0 for deterministic
	// cells; the Randomized accuracy's delta otherwise): the numeric
	// envelope holds per read only with probability >= 1-Delta.
	// Configured, not measured, so -compare treats any widening as a
	// regression — a cell silently trading determinism away fails the
	// gate.
	Delta float64 `json:"delta,omitempty"`
}

// EnvelopeOf converts an object's Bounds into record form.
func EnvelopeOf(b approxobj.Bounds) *RecordEnvelope {
	return &RecordEnvelope{Mult: b.Mult, Add: b.Add, Buffer: b.Buffer, Stale: uint64(b.Stale), Window: uint64(b.Window), Delta: b.Delta}
}

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Note   string
	Header []string
	Rows   [][]string
	// Records carries the machine-readable counterpart of (some of) the
	// rows; experiments populate it with AddRecord where a row maps to a
	// metric worth tracking across PRs.
	Records []Record
}

// AddRecord appends a machine-readable measurement, filling in the
// table's ID as the scenario.
func (t *Table) AddRecord(r Record) {
	if r.Scenario == "" {
		r.Scenario = t.ID
	}
	t.Records = append(t.Records, r)
}

// AddRow appends a row of cells, formatting each with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "## %s — %s\n", t.ID, t.Title)
	if t.Note != "" {
		for _, line := range strings.Split(strings.TrimSpace(t.Note), "\n") {
			fmt.Fprintf(w, "# %s\n", strings.TrimSpace(line))
		}
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(parts, " | "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Config tunes experiment sizes. Quick shrinks every sweep for use in unit
// tests and smoke runs. Seed is the base seed every scenario RNG derives
// from (cmd/approxbench's -seed flag): two runs with the same Seed and
// Quick setting drive identical operation sequences, so their -json
// records differ only by machine timing.
type Config struct {
	Quick bool
	Seed  int64
}

// Experiment couples an ID with its generator, a one-line description
// (printed by approxbench -list), and the record scenarios it contributes
// to the -json measurement trajectory. Scenarios is the contract for the
// trajectory: cmd/approxbench fails a run whose output is missing a
// declared scenario, and the package tests assert that declarations and
// emissions match exactly — so a new experiment (or a refactor of an old
// one) cannot silently drop records from the trajectory, and the set of
// tracked scenarios lives in this table rather than in a hand-kept list
// somewhere downstream.
type Experiment struct {
	ID        string
	Desc      string
	Scenarios []string // record scenarios emitted on every run (nil: table-only experiment)
	Run       func(cfg Config) ([]*Table, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{ID: "e1", Desc: "amortized step complexity of the k-multiplicative counter (Thm III.9)", Scenarios: []string{"E1a"}, Run: E1Amortized},
		{ID: "e2", Desc: "awareness propagation under the deterministic scheduler", Run: E2Awareness},
		{ID: "e3", Desc: "bounded max-register worst-case steps, exact vs approximate (Thm IV.2)", Run: E3MaxRegWorstCase},
		{ID: "e4", Desc: "perturbation lower-bound construction for max registers", Run: E4PerturbMaxReg},
		{ID: "e5", Desc: "perturbation lower-bound construction for counters", Run: E5PerturbCounter},
		{ID: "e7", Desc: "concurrent throughput, approximate vs exact counters", Scenarios: []string{"E7"}, Run: E7Throughput},
		{ID: "e8", Desc: "unbounded max-register step growth", Run: E8UnboundedMaxReg},
		{ID: "e9", Desc: "Claim III.6 boundary gap: verbatim vs repaired thresholds", Run: E9Boundary},
		{ID: "e10", Desc: "additive-accuracy counter costs", Run: E10Additive},
		{ID: "e11", Desc: "randomized baseline comparison (Morris counter) via the spec API", Run: E11Randomized},
		{ID: "e12", Desc: "sharded counter scaling: shards x batch sweep via the spec API", Scenarios: []string{"E12"}, Run: E12Sharded},
		{ID: "e13", Desc: "registry + pooled handles under mixed traffic with concurrent snapshots", Scenarios: []string{"E13"}, Run: E13Registry},
		{ID: "e14", Desc: "sharded max-register scaling: shards x elision-window sweep via the spec API", Scenarios: []string{"E14"}, Run: E14ShardedMaxReg},
		{ID: "e15", Desc: "sharded snapshot scaling: shards x elision-window sweep via the spec API", Scenarios: []string{"E15"}, Run: E15ShardedSnapshot},
		{ID: "e16", Desc: "sharded histogram scaling: shards x batch sweep with quantile queries via the spec API", Scenarios: []string{"E16"}, Run: E16ShardedHistogram},
		{ID: "e17", Desc: "read plane: cached vs uncached read cost across shard counts, plus a reader:writer ratio sweep", Scenarios: []string{"E17", "E17b"}, Run: E17ReadPlane},
		{ID: "e18", Desc: "windowed objects: per-kind reads under concurrent observation, plus a full-registry scrape", Scenarios: []string{"E18"}, Run: E18Windowed},
		{ID: "e19", Desc: "deterministic-vs-randomized frontier: steps/op and space at equal target error, shards x batch", Scenarios: []string{"E19"}, Run: E19Frontier},
		{ID: "e20", Desc: "arena plane: writer throughput across goroutines x shards, plus allocations per read for every kind", Scenarios: []string{"E20", "E20r"}, Run: E20Arena},
		{ID: "e21", Desc: "self-instrumentation: telemetry on vs off for counter + histogram write/read paths, shards x batch", Scenarios: []string{"E21"}, Run: E21Telemetry},
		{ID: "f1", Desc: "Figure 1 read-case trace reproduction", Run: F1ReadCases},
	}
}
