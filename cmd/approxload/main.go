package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metric is one named number the benchmark reports.
type metric struct {
	name, unit string
	value      float64
	n          int  // samples behind a timing; 0 when it is not a timing
	omitted    bool // a percentile with fewer than minBeyond samples beyond it
	info       bool // printed for people, left out of the JSON result
}

// result is what one workload run reports.
type result struct {
	e2e, layer        []metric
	attempted, failed int64
	msgs              []string

	headline    float64 // req_p50_ns, the metric the trace overhead ratio compares
	allocsPerOp float64
}

func (r *result) e2eMetric(name, unit string, v float64) {
	r.e2e = append(r.e2e, metric{name: name, unit: unit, value: v})
}

func (r *result) layerMetric(name, unit string, v float64) {
	r.layer = append(r.layer, metric{name: name, unit: unit, value: v})
}

func (r *result) infoMetric(list *[]metric, name, unit string, v float64) {
	*list = append(*list, metric{name: name, unit: unit, value: v, info: true})
}

// percentiles adds <prefix>_p50_ns and <prefix>_p99_ns from t to list,
// for people only, each with its sample count, omitted when too few
// samples lie beyond it.
func (r *result) percentiles(list *[]metric, prefix string, t timing) {
	*list = append(*list,
		metric{name: prefix + "_p50_ns", unit: "ns", value: float64(t.p50), n: t.n, omitted: !t.ok50, info: true},
		metric{name: prefix + "_p99_ns", unit: "ns", value: float64(t.p99), n: t.n, omitted: !t.ok99, info: true})
}

// finish records the end-to-end metrics every workload reports and the
// checker's verdict. ops is the number of requests measured. Only set-up
// time and memory are gated; the timings of the load are printed for
// people (doc.go gives the reason).
func (r *result) finish(setupS, memPerObj float64, req timing, writeMops, allocsPerOp float64, chk *checker, ops uint64) {
	r.e2eMetric("setup_s", "s", setupS)
	r.e2eMetric("mem_per_object_bytes", "B", memPerObj)
	r.percentiles(&r.e2e, "req", req)
	r.infoMetric(&r.e2e, "write_mops", "Mops/s", writeMops)
	r.headline = float64(req.p50)
	r.attempted += int64(ops)
	r.allocsPerOp = allocsPerOp
	r.failed += chk.failed
	r.msgs = append(r.msgs, chk.msgs...)
	if chk.checks == 0 {
		r.failed++
		r.msgs = append(r.msgs, "no value was checked")
	}
}

// runConfig is the shape of one run: warm-up and measured phase lengths,
// and the tracer when the run is the traced variant.
type runConfig struct {
	warmup, measure time.Duration
	tracer          *tracer
}

// workload is one named input set; inputs are generated from the seed
// before any object is built, and run receives only those inputs.
type workload struct {
	name string
	gen  func(seed uint64) any
	run  func(in any, rc runConfig) (*result, error)
}

// workloads lists the benchmark's workloads in the order "all" runs them.
var workloads = []*workload{ingestWorkload, scrapeWorkload, queryWorkload, serviceWorkload}

// options is one invocation of the benchmark. measure is the length of a
// run's measured phase (-seconds); the smoke test shortens it, and the
// warm-up, through this struct.
type options struct {
	workload  string
	seed      uint64
	measure   time.Duration
	warmup    time.Duration
	trace     bool
	spansPath string
}

func main() {
	var o options
	var seconds, traceFlag int
	flag.StringVar(&o.workload, "workload", "all", "workload to run: ingest, scrape, query, service or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&seconds, "seconds", 20, "length of the measured phase of a run, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	flag.StringVar(&o.spansPath, "spans", "", "span output file of the traced variant (implies -trace 1; default .bench_build/spans-<workload>.jsonl)")
	flag.Parse()
	if seconds < 1 || (traceFlag != 0 && traceFlag != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "approxload: need -seconds >= 1, -trace 0 or 1, and no positional arguments")
		os.Exit(2)
	}
	o.measure = time.Duration(seconds) * time.Second
	o.warmup = 2 * time.Second
	o.trace = traceFlag == 1 || o.spansPath != ""
	ok, err := run(os.Stdout, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "approxload:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes the selected workloads, prints every metric as a
// "workload metric value unit" line and then, as the last line, one JSON
// object with the verdict and the metrics. ok is false when any value the
// library returned was out of its envelope.
func run(out io.Writer, o options) (ok bool, err error) {
	var selected []*workload
	for _, w := range workloads {
		if o.workload == "all" || o.workload == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return false, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.spansPath != "" {
		if err := removeStale(o.spansPath); err != nil {
			return false, err
		}
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Metrics: map[string]jsonMetric{}}
	for _, w := range selected {
		r, err := runWorkload(w, o)
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.name, err)
		}
		summary.Attempted += r.attempted
		summary.Failed += r.failed
		list := r.e2e
		if o.trace {
			list = r.layer
		}
		for _, m := range list {
			value := fmt.Sprintf("%.4f", m.value)
			if m.omitted {
				value = "omitted"
			}
			line := fmt.Sprintf("%-8s %-42s %16s %-8s", w.name, m.name, value, m.unit)
			if m.n > 0 {
				line += fmt.Sprintf(" n=%d", m.n)
			}
			fmt.Fprintln(out, strings.TrimRight(line, " "))
			if m.info || m.omitted {
				continue
			}
			key := m.name
			if len(selected) > 1 {
				key = w.name + "." + m.name
			}
			summary.Metrics[key] = jsonMetric{m.value, m.unit}
		}
		for _, msg := range r.msgs {
			fmt.Fprintf(out, "%-8s FAIL %s\n", w.name, msg)
		}
	}
	summary.Correct = summary.Failed == 0
	line, err := json.Marshal(summary)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(out, string(line))
	return summary.Correct, nil
}

// runWorkload runs one workload. The untraced variant is one run of the
// full measured length. The traced variant splits the same length into
// an untraced run and a traced run of a quarter each — their headline
// ratio is the tracing overhead — and the layer ledger in the remaining
// half.
func runWorkload(w *workload, o options) (*result, error) {
	in := w.gen(o.seed)
	if !o.trace {
		return w.run(in, runConfig{warmup: o.warmup, measure: o.measure})
	}
	quarter := runConfig{warmup: o.warmup / 2, measure: o.measure / 4}
	base, err := w.run(in, quarter)
	if err != nil {
		return nil, err
	}
	quarter.tracer = newTracer()
	traced, err := w.run(in, quarter)
	if err != nil {
		return nil, err
	}
	r := &result{
		layer:     traced.layer,
		attempted: base.attempted + traced.attempted,
		failed:    base.failed + traced.failed,
		msgs:      append(base.msgs, traced.msgs...),
	}
	r.layerMetric("trace.overhead_ratio", "ratio", ratio(traced.headline, base.headline))
	r.layerMetric("allocs_per_op", "allocs", base.allocsPerOp)
	if err := ledger(r, o.measure/2, o.seed); err != nil {
		return nil, err
	}
	path := o.spansPath
	if path == "" {
		path = filepath.Join(".bench_build", "spans-"+w.name+".jsonl")
		if err := removeStale(path); err != nil {
			return nil, err
		}
	}
	if err := quarter.tracer.writeSpans(path, w.name); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return r, nil
}

// removeStale deletes a span file left by an earlier invocation, since
// spans are appended workload by workload.
func removeStale(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}
