package bench

import (
	"strconv"
	"strings"
	"testing"
)

func TestAllExperimentsQuick(t *testing.T) {
	for _, exp := range All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			tables, err := exp.Run(Config{Quick: true})
			if err != nil {
				t.Fatalf("%s: %v", exp.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", exp.ID)
			}
			emitted, kinds := map[string]bool{}, map[string]bool{}
			for _, tb := range tables {
				out := tb.String()
				if !strings.Contains(out, tb.ID) || len(tb.Rows) == 0 {
					t.Fatalf("%s: malformed table output:\n%s", exp.ID, out)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Header) {
						t.Fatalf("%s: row width %d != header width %d", tb.ID, len(row), len(tb.Header))
					}
				}
				for _, r := range tb.Records {
					emitted[r.Scenario] = true
					kinds[r.Scenario+" kind="+r.Params["kind"]] = true
				}
			}
			// The cross-kind scenarios iterate the kind table: each must
			// emit a record for every row.
			for _, sc := range []string{"E17", "E18", "E20r"} {
				for _, row := range kindRows {
					if emitted[sc] && !kinds[sc+" kind="+row.name] {
						t.Errorf("%s emits no record with kind=%s", sc, row.name)
					}
				}
			}
			// Declared and emitted record scenarios must match exactly:
			// the experiment table is the single source of truth for the
			// -json measurement trajectory. A scenario emitted but not
			// declared would drop out of the trajectory contract the next
			// time someone trims the table; a declared one not emitted is
			// the silent-drop bug this guards against.
			declared := map[string]bool{}
			for _, sc := range exp.Scenarios {
				declared[sc] = true
				if !emitted[sc] {
					t.Errorf("%s declares record scenario %q but emitted no records for it", exp.ID, sc)
				}
			}
			for sc := range emitted {
				if !declared[sc] {
					t.Errorf("%s emitted records for scenario %q without declaring it in bench.All", exp.ID, sc)
				}
			}
		})
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		ID:     "T",
		Title:  "demo",
		Note:   "a note\nsecond line",
		Header: []string{"col", "value"},
	}
	tb.AddRow("x", 3.14159)
	tb.AddRow("longer-cell", 1)
	out := tb.String()
	for _, want := range []string{"## T — demo", "# a note", "# second line", "3.14", "longer-cell"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestE9ShowsViolationAndRepair(t *testing.T) {
	tables, err := E9Boundary(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	out := tables[0].String()
	if !strings.Contains(out, "VIOLATED") {
		t.Fatalf("E9 did not reproduce the verbatim violation:\n%s", out)
	}
	// Every repaired row must be ok.
	for _, row := range tables[0].Rows {
		if row[2] == "repaired" && row[7] != "ok" {
			t.Fatalf("repaired variant violated the envelope: %v", row)
		}
		if row[2] == "verbatim" && row[7] != "VIOLATED" {
			t.Fatalf("verbatim variant unexpectedly within envelope: %v", row)
		}
	}
}

func TestF1CasesMatchFigure(t *testing.T) {
	tables, err := F1ReadCases(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 3 {
		t.Fatalf("F1 has %d rows, want 3", len(rows))
	}
	// b.1 and b.2 stop at (1,0) and return the same response; case a
	// stops at (0,1).
	if rows[0][3] != "(1,0)" || rows[1][3] != "(1,0)" {
		t.Fatalf("b cases stop at %s/%s, want (1,0)", rows[0][3], rows[1][3])
	}
	if rows[0][4] != rows[1][4] {
		t.Fatalf("b.1 and b.2 responses differ: %s vs %s", rows[0][4], rows[1][4])
	}
	if rows[2][3] != "(0,1)" {
		t.Fatalf("case a stops at %s, want (0,1)", rows[2][3])
	}
}

func TestE3PredictionsMatchMeasurements(t *testing.T) {
	for _, quick := range []bool{true, false} {
		tables, err := E3MaxRegWorstCase(Config{Quick: quick})
		if err != nil {
			t.Fatal(err)
		}
		tb := tables[0]
		// Measured worst-case steps never exceed the predicted tree depth,
		// in the exact column and in every k column: each "pred" column
		// is followed by its "meas" column.
		for c := 1; c < len(tb.Header); c += 2 {
			if !strings.HasSuffix(tb.Header[c], " pred") || !strings.HasSuffix(tb.Header[c+1], " meas") {
				t.Fatalf("columns %q, %q are not a pred/meas pair", tb.Header[c], tb.Header[c+1])
			}
			for _, row := range tb.Rows {
				pred, err1 := strconv.Atoi(row[c])
				meas, err2 := strconv.Atoi(row[c+1])
				if err1 != nil || err2 != nil {
					t.Fatalf("unparsable %s cells %q, %q in row %v", tb.Header[c], row[c], row[c+1], row)
				}
				if meas > pred {
					t.Errorf("quick=%v m=%s: %s %d exceeds %s %d", quick, row[0], tb.Header[c+1], meas, tb.Header[c], pred)
				}
			}
		}
	}
}
