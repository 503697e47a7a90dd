package bench

import (
	"fmt"
	"strconv"
	"time"

	"approxobj"
)

// E21Telemetry measures the self-instrumentation plane (PR 10): the
// cost of running an object with a telemetry domain attached
// (WithTelemetry) versus completely uninstrumented, for the two
// write-heaviest kinds (counter and histogram) across shards x batch.
// Three metrics per cell:
//
//   - ns/op for the write path (Inc / Observe), machine-dependent: the
//     instrumented column tracks the striped-atomic overhead across
//     PRs, the uninstrumented one pins the nil fast path's cost at
//     "one never-taken branch".
//   - steps/op, machine-independent: telemetry counts events in its
//     own striped cells, never through the objects' base-object
//     primitives, so the step count must be IDENTICAL with telemetry
//     on and off — any drift is a bug, gated by -compare's steps
//     tolerance and pinned exactly by TestTelemetryDisabledZeroCost.
//   - allocs/read, machine-independent: the read path must stay
//     allocation-free in both columns (telemetry's read-side events
//     are striped counter bumps, not allocations).
func E21Telemetry(cfg Config) ([]*Table, error) {
	shardCounts := []int{1, 4}
	batches := []int{1, 8}
	writes := 200_000
	reads := 20_000
	if cfg.Quick {
		writes = 20_000
		reads = 2_000
	}

	t := &Table{
		ID:    "E21",
		Title: "self-instrumentation: telemetry on vs off, counter + histogram write/read paths, shards x batch",
		Note: `Each row drives one writer handle and one reader handle of a
Multiplicative(2) object, with and without a telemetry domain attached
(WithTelemetry). Telemetry counts runtime events (flushes, buffer
hits, cache traffic) in its own cache-line-striped atomics and batched
handle-local accumulators; it never touches the objects' base-object
primitives, so steps/op must be identical across the telemetry column
— that invariant is the machine-independent claim of this table, along
with allocs/read staying 0.00 in both columns. ns/op is
machine-dependent and tracked for drift only.`,
		Header: []string{"kind", "shards", "batch", "telemetry", "ns/op", "steps/op", "allocs/read"},
	}

	var sink uint64
	for _, row := range kindRows {
		if row.kind != approxobj.KindCounter && row.kind != approxobj.KindHistogram {
			continue // the two write-heaviest kinds only
		}
		for _, shards := range shardCounts {
			for _, batch := range batches {
				for _, instrumented := range []bool{false, true} {
					opts := []approxobj.Option{approxobj.WithShards(shards), approxobj.WithBatch(batch)}
					if instrumented {
						opts = append(opts, approxobj.WithTelemetry(approxobj.NewTelemetry()))
					}
					o, err := row.open(nil, opts...)
					if err != nil {
						return nil, err
					}
					// The writes put a fixed stride over the histogram's
					// domain (no RNG in the hot loop; the counter ignores
					// the value). Warm-up: scratch buffers, first flush.
					var v uint64
					for i := 0; i < 64; i++ {
						v += 7919
						o.put(v)
					}
					sink += o.read()

					steps0 := o.steps()
					start := time.Now()
					for i := 0; i < writes; i++ {
						v += 7919
						o.put(v)
					}
					elapsed := time.Since(start)
					stepsPerOp := float64(o.steps()-steps0) / float64(writes)
					nsPerOp := float64(elapsed.Nanoseconds()) / float64(writes)
					allocs := allocsPerRead(reads, o.read, &sink)
					o.obj.Close()

					t.AddRow(row.name, shards, batch, onOff(instrumented),
						fmt.Sprintf("%.1f", nsPerOp), fmt.Sprintf("%.3f", stepsPerOp), fmt.Sprintf("%.2f", allocs))
					t.AddRecord(Record{
						Params: map[string]string{
							"kind":      row.name,
							"shards":    strconv.Itoa(shards),
							"batch":     strconv.Itoa(batch),
							"telemetry": onOff(instrumented),
						},
						NsPerOp:       nsPerOp,
						StepsPerOp:    stepsPerOp,
						AllocsPerRead: allocs,
					})
				}
			}
		}
	}
	if sink == ^uint64(0) {
		return nil, fmt.Errorf("bench: impossible sink value")
	}
	return []*Table{t}, nil
}
