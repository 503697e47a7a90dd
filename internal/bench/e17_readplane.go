package bench

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"approxobj"
)

// E17ReadPlane measures the read cache (WithReadCache): the PR 6
// claim is that a cached read is O(1) in the shard count S — an atomic
// load of the pre-combined cell — where an uncached read folds all S
// shards. Two sweeps:
//
//   - E17: every object kind x S in {1, 4, 16} x {uncached, cached},
//     read-only after a populate phase. Uncached read cost grows with S;
//     cached cost must stay flat (a read that finds the cell stale pays
//     the fold, at most once per staleness window).
//   - E17b: a counter under mixed traffic with the reader:writer
//     operation ratio swept from 1:64 (write-dominated) to 64:1
//     (read-dominated), cached vs uncached, on a fixed S = 4. The cache
//     buys the most where reads dominate; write-heavy mixes bound the
//     cost of the refresh each sparse read pays.
//
// Every E17 cell re-verifies the convergence contract at quiescence:
// once writers have flushed (and, for a cached cell, the staleness
// window has passed), a read must land inside the flushed envelope of
// the true value.
func E17ReadPlane(cfg Config) ([]*Table, error) {
	shardCounts := []int{1, 4, 16}
	reads := 200_000
	writes := 20_000
	if cfg.Quick {
		reads = 20_000
		writes = 4_000
	}
	const stale = 5 * time.Millisecond

	t := &Table{
		ID:    "E17",
		Title: "read plane: per-kind read cost, cached vs uncached, across shard counts",
		Note: `Each row is one (kind, shards, cached) cell: a populate phase through
handle 0, then a timed read-only loop through handle 1 (Read for the
counter and max register, ScanInto for the snapshot, p99 Quantile for the
histogram). Uncached reads fold all S shards, so their ns/op grows
with S; cached reads (WithReadCache, maxStale 5ms) load the pre-combined
cell, refreshed by the read that finds it stale, so their ns/op must
stay flat across S. The Stale
column of the recorded envelope is the configured staleness window:
cached reads serve a value whose combined read began at most that long
before the read, which is the accuracy price of the O(1) read.`,
		Header: []string{"kind", "shards", "cached", "read ns/op"},
	}

	var sink uint64
	for _, row := range kindRows {
		for _, s := range shardCounts {
			for _, cached := range []bool{false, true} {
				opts := []approxobj.Option{approxobj.WithShards(s)}
				if cached {
					opts = append(opts, approxobj.WithReadCache(stale))
				}
				o, err := row.open(nil, opts...)
				if err != nil {
					return nil, err
				}
				o.fill(writes)
				o.read() // warm the cache cell so the loop measures the steady state
				start := time.Now()
				for i := 0; i < reads; i++ {
					sink += o.read()
				}
				elapsed := time.Since(start)
				if cached {
					time.Sleep(2 * stale) // cell expires; the next read refreshes inline
				}
				err = o.settled(uint64(writes))
				o.obj.Close()
				if err != nil {
					return nil, fmt.Errorf("bench: E17 %s S=%d: %w", row.name, s, err)
				}
				nsPerOp := float64(elapsed.Nanoseconds()) / float64(reads)
				t.AddRow(row.name, s, onOff(cached), fmt.Sprintf("%.1f", nsPerOp))
				t.AddRecord(Record{
					Params: map[string]string{
						"kind":   row.name,
						"shards": strconv.Itoa(s),
						"cached": onOff(cached),
					},
					NsPerOp:  nsPerOp,
					Envelope: EnvelopeOf(o.obj.Bounds()),
				})
			}
		}
	}
	if sink == ^uint64(0) {
		return nil, fmt.Errorf("bench: impossible sink value")
	}

	t2, err := e17RatioSweep(cfg, stale)
	if err != nil {
		return nil, err
	}
	return []*Table{t, t2}, nil
}

// e17RatioSweep is the E17b table: a Multiplicative(3) counter on S = 4
// shards under mixed traffic from 4 goroutines, with the per-operation
// read probability swept so the expected reader:writer operation ratio
// runs from 1:64 to 64:1, cached vs uncached.
func e17RatioSweep(cfg Config, stale time.Duration) (*Table, error) {
	const gs = 4
	const shards = 4
	opsPer := 60_000
	if cfg.Quick {
		opsPer = 8_000
	}
	ratios := []struct{ r, w int }{
		{1, 64}, {1, 16}, {1, 4}, {1, 1}, {4, 1}, {16, 1}, {64, 1},
	}

	t := &Table{
		ID:    "E17b",
		Title: fmt.Sprintf("read plane: counter ratio sweep, %d goroutines, S=%d", gs, shards),
		Note: `Each row drives the same mixed workload (per-op read probability
r/(r+w)) against a Multiplicative(3) counter with and without
WithReadCache. The cache converts every read into an O(1) cell load at
the price of the staleness term, so its advantage grows toward the
read-dominated end of the sweep; the write-dominated end bounds the
cost of a cache whose rare reads mostly find the cell stale and refresh
it themselves.`,
		Header: []string{"reads:writes", "cached", "Mops/s", "ns/op"},
	}

	for _, ratio := range ratios {
		p := float64(ratio.r) / float64(ratio.r+ratio.w)
		for _, cached := range []bool{false, true} {
			opts := []approxobj.Option{
				approxobj.WithProcs(gs),
				approxobj.WithAccuracy(approxobj.Multiplicative(3)),
				approxobj.WithShards(shards),
			}
			if cached {
				opts = append(opts, approxobj.WithReadCache(stale))
			}
			c, err := approxobj.NewCounter(opts...)
			if err != nil {
				return nil, err
			}
			elapsed := race(gs, func(i int) func() {
				h := c.Handle(i)
				rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*131 + 17))
				return func() {
					for j := 0; j < opsPer; j++ {
						if rng.Float64() < p {
							h.Read()
						} else {
							h.Inc()
						}
					}
				}
			})
			c.Close()

			totalOps := float64(gs * opsPer)
			nsPerOp := float64(elapsed.Nanoseconds()) / totalOps
			name := fmt.Sprintf("%d:%d", ratio.r, ratio.w)
			t.AddRow(name, onOff(cached), totalOps/elapsed.Seconds()/1e6, fmt.Sprintf("%.1f", nsPerOp))
			t.AddRecord(Record{
				Params: map[string]string{
					"ratio":  name,
					"cached": onOff(cached),
				},
				NsPerOp:  nsPerOp,
				Envelope: EnvelopeOf(c.Bounds()),
			})
		}
	}
	return t, nil
}
