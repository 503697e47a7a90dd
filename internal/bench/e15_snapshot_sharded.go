package bench

import (
	"fmt"
	"math/rand"

	"approxobj"
)

// E15ShardedSnapshot is the scaling experiment for the snapshot side of
// the backend plane, driven through the public spec API (WithShards x
// WithBatch over the exact single-writer snapshot): goroutines x shards
// x batch sweep of wall-clock throughput, 95% update / 5% scan over
// slowly-rising per-component sequences. Sharding splits each scan into
// S smaller snapshots merged per component (the merge widens nothing —
// every component lives in exactly one shard), and the batch parameter
// is the component-elision window: updates within B-1 above a handle's
// last flushed component value never touch shared memory, which on
// slowly-rising sequences elides almost every update. Every cell
// re-verifies the per-component accuracy envelope at quiescence after
// flushing.
func E15ShardedSnapshot(cfg Config) ([]*Table, error) { return e15Sweep().run(cfg) }

func e15Sweep() sweep {
	return sweep{
		id:    "E15",
		title: "sharded snapshot scaling, 95% update / 5% scan",
		note: `Each row is one (goroutines, shards, batch) cell over independent
AADGMS snapshots; shards=1 batch=1 is the unsharded baseline. A scan
merges the S per-shard scans per component, which widens nothing: every
component lives in exactly one shard, so the merged view is exact
(modulo elision). batch=B is the component-elision window: updates
within B-1 above a handle's last flushed component value never touch
shared memory, so slowly-rising sequences flush only every ~B-th value
and the headroom surfaces as the Buffer term of Bounds (B-1 per
component). Scans are the expensive operation (O(n^2) per shard worst
case); elision removes update work rather than contention, so it shows
even on a single-CPU host.`,
		readCol:  "scans/s",
		shards:   []int{1, 2, 4},
		ops:      30_000,
		quickOps: 4_000,
		seed:     43,
		open: func(gs int, opts []approxobj.Option) (sweepCell, error) {
			sn, err := approxobj.NewSnapshot(opts...)
			if err != nil {
				return nil, err
			}
			return &snapshotCell{sn, handles(gs, sn.Handle), make([]uint64, gs)}, nil
		},
	}
}

// snapshotCell is an E15 cell: goroutine i updates its component with
// the ascending sequence 1, 2, ... and Scans through handle i.
type snapshotCell struct {
	*approxobj.Snapshot
	hs     []approxobj.SnapshotHandle
	finals []uint64 // per component: its last update
}

func (c *snapshotCell) loop(i, ops int, rng *rand.Rand, scans *uint64) func() {
	h, finals := c.hs[i], c.finals
	return func() {
		for j := 1; j <= ops; j++ {
			if rng.Float64() < sweepReadFrac {
				h.Scan()
				*scans++
			} else {
				v := uint64(j)
				h.Update(v)
				finals[i] = v
			}
		}
	}
}

// settled flushes every elision window; the merged scan must then
// report every component inside the flushed envelope, which for the
// exact backend is the component itself.
func (c *snapshotCell) settled() error {
	for _, h := range c.hs {
		h.(approxobj.BatchedSnapshotHandle).Flush()
	}
	view := c.hs[0].Scan()
	for i, want := range c.finals {
		if err := settledWithin(c.Bounds(), want, view[i]); err != nil {
			return fmt.Errorf("component %d: %w", i, err)
		}
	}
	return nil
}
