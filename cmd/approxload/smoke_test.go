package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the smoke
// test holds the program to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload, untraced and traced (ledger included),
// for a few hundred milliseconds through the same entry point main uses,
// and checks that every metric BENCHMARK.json lists is printed with its
// unit for every workload, and that no value failed its check.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var known []string
	for _, w := range workloads {
		known = append(known, w.name)
	}
	if strings.Join(names, ",") != strings.Join(known, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program workloads %v", names, known)
	}

	for _, c := range []struct {
		trace   bool
		metrics []benchMetric
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		var out bytes.Buffer
		o := options{
			workload:  "all",
			seed:      1,
			measure:   300 * time.Millisecond,
			warmup:    100 * time.Millisecond,
			trace:     c.trace,
			spansPath: filepath.Join(t.TempDir(), "spans.jsonl"),
		}
		ok, err := run(&out, o)
		if err != nil {
			t.Fatalf("trace=%v: %v", c.trace, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var summary struct {
			Correct bool  `json:"correct"`
			Failed  int64 `json:"failed"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
			t.Fatalf("trace=%v: last line is not the JSON result: %v", c.trace, err)
		}
		if !ok || !summary.Correct || summary.Failed != 0 {
			t.Errorf("trace=%v: correct=%v failed=%d; output:\n%s", c.trace, summary.Correct, summary.Failed, out.String())
		}
		printed := map[string]string{} // "workload metric" -> unit
		for _, l := range lines[:len(lines)-1] {
			if f := strings.Fields(l); len(f) >= 4 {
				printed[f[0]+" "+f[1]] = f[3]
			}
		}
		for _, w := range names {
			for _, m := range c.metrics {
				if unit, found := printed[w+" "+m.Name]; !found || unit != m.Unit {
					t.Errorf("trace=%v: %s %s printed with unit %q (found %v); want %q", c.trace, w, m.Name, unit, found, m.Unit)
				}
			}
		}
		if c.trace {
			if st, err := os.Stat(o.spansPath); err != nil || st.Size() == 0 {
				t.Errorf("span file %s not written: %v", o.spansPath, err)
			}
		}
	}
}
