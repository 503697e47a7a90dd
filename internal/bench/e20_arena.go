package bench

import (
	"fmt"
	"strconv"
	"time"

	"approxobj"
)

// E20Arena measures the arena-backed plane (PR 9): base objects of one
// shard live in a single cache-line-padded arena, and every read path
// reuses handle-local scratch instead of allocating. Two sweeps:
//
//   - E20: writer throughput for a Multiplicative(4) counter across
//     goroutines g in {1, 2, 4} x shards S in {1, 4}, unbuffered
//     (batch 1), so every Inc hits the arena. The ns/op trajectory
//     tracks the arena's false-sharing behaviour across PRs; shard
//     scaling itself is machine-dependent (meaningless on one core), so
//     only the per-cell timings are recorded, not a scaling claim.
//   - E20r: heap allocations per read for every kind, cached and
//     uncached, measured as a Mallocs delta over a read loop. Unlike
//     the timings this is machine-independent and gated exactly by
//     cmd/approxbench's -compare: cached scalar reads must report 0
//     (one atomic load, no scratch at all), and no cell may allocate
//     more per read than the previous trajectory file records.
func E20Arena(cfg Config) ([]*Table, error) {
	t, err := e20WriterSweep(cfg)
	if err != nil {
		return nil, err
	}
	t2, err := e20AllocsPerRead(cfg)
	if err != nil {
		return nil, err
	}
	return []*Table{t, t2}, nil
}

// e20WriterSweep is the E20 table: concurrent unbuffered increments
// against the arena across goroutine and shard counts.
func e20WriterSweep(cfg Config) (*Table, error) {
	goroutines := []int{1, 2, 4}
	shardCounts := []int{1, 4}
	opsPer := 200_000
	if cfg.Quick {
		opsPer = 20_000
	}

	t := &Table{
		ID:    "E20",
		Title: "arena plane: writer throughput, goroutines x shards, unbuffered Multiplicative(4) counter",
		Note: `Each row drives g goroutines of back-to-back Incs (batch 1, so every
increment reaches the shared arena) against a Multiplicative(4) counter
on S shards. Shard i mod S receives handle i's traffic; with the
128-byte arena stride no two slots share a cache line, so contention is
limited to the counter's own synchronization. The ns/op cells are
machine-dependent (shard scaling needs real cores); the recorded
trajectory tracks them for drift, not as a scaling proof.`,
		Header: []string{"goroutines", "shards", "Mops/s", "ns/op"},
	}

	for _, g := range goroutines {
		for _, s := range shardCounts {
			c, err := approxobj.NewCounter(
				approxobj.WithProcs(g),
				approxobj.WithAccuracy(approxobj.Multiplicative(4)),
				approxobj.WithShards(s),
			)
			if err != nil {
				return nil, err
			}
			elapsed := race(g, func(i int) func() {
				h := c.Handle(i)
				return func() {
					for j := 0; j < opsPer; j++ {
						h.Inc()
					}
				}
			})
			c.Close()

			totalOps := float64(g * opsPer)
			nsPerOp := float64(elapsed.Nanoseconds()) / totalOps
			t.AddRow(g, s, totalOps/elapsed.Seconds()/1e6, fmt.Sprintf("%.1f", nsPerOp))
			t.AddRecord(Record{
				Params: map[string]string{
					"goroutines": strconv.Itoa(g),
					"shards":     strconv.Itoa(s),
				},
				NsPerOp:  nsPerOp,
				Envelope: EnvelopeOf(c.Bounds()),
			})
		}
	}
	return t, nil
}

// e20AllocsPerRead is the E20r table: heap allocations per read for
// every kind, cached and uncached. The cached cells use an effectively
// infinite staleness window so the measurement loop sees only the
// steady-state fast path (no combiner refresh lands mid-loop); the
// uncached cells fold the shards into handle scratch on every read.
func e20AllocsPerRead(cfg Config) (*Table, error) {
	const shards = 4
	reads := 50_000
	writes := 10_000
	if cfg.Quick {
		reads = 5_000
		writes = 2_000
	}

	t := &Table{
		ID:    "E20r",
		Title: fmt.Sprintf("arena plane: heap allocations per read, every kind, cached vs uncached, S=%d", shards),
		Note: `Each row populates one object through handle 0, warms handle 1's read
scratch, then measures runtime.MemStats.Mallocs across a read loop.
The zero-allocation read path is a correctness property of this
repository, not a timing: cached scalar reads are one atomic load (0
allocs), uncached scalar reads fold the shards in registers (0
allocs), and vector kinds reuse handle-local buffers (0 steady-state
allocs; the histogram's Quantile answers from the same reused read).
-compare fails a run whose allocs_per_read exceeds the trajectory
file's, like an envelope widening.`,
		Header: []string{"kind", "cached", "allocs/read"},
	}

	var sink uint64
	for _, row := range kindRows {
		for _, cached := range []bool{false, true} {
			opts := []approxobj.Option{approxobj.WithShards(shards)}
			if cached {
				// An hour of staleness: the cell never expires mid-measurement,
				// so the loop stays on the cached fast path (one refresh at
				// warm-up).
				opts = append(opts, approxobj.WithReadCache(time.Hour))
			}
			o, err := row.open(nil, opts...)
			if err != nil {
				return nil, err
			}
			o.fill(writes)
			// Warm-up: the first reads allocate the handle's scratch
			// buffers and (when cached) the combined cell; steady state
			// starts after.
			for i := 0; i < 16; i++ {
				sink += o.read()
			}
			allocs := allocsPerRead(reads, o.read, &sink)
			o.obj.Close()

			t.AddRow(row.name, onOff(cached), fmt.Sprintf("%.2f", allocs))
			t.AddRecord(Record{
				Params: map[string]string{
					"kind":   row.name,
					"cached": onOff(cached),
				},
				AllocsPerRead: allocs,
				Envelope:      EnvelopeOf(o.obj.Bounds()),
			})
		}
	}
	if sink == ^uint64(0) {
		return nil, fmt.Errorf("bench: impossible sink value")
	}
	return t, nil
}
