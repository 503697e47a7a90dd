package bench

import (
	"math/rand"

	"approxobj"
)

// E14ShardedMaxReg is the scaling experiment for the max-register side of
// the unified sharded runtime, driven through the public spec API
// (WithShards x WithBatch over a Multiplicative register): goroutines x
// shards x batch sweep of wall-clock throughput, 95% write / 5% read over
// ascending per-goroutine sequences. Sharding splits write traffic across
// independent Algorithm 2 instances, and — unlike the counter's sum —
// the max over shards composes with NO envelope widening at all. The
// batch parameter is the write-elision window: a handle skips shared
// memory entirely for writes within B-1 of its last flushed value, which
// on slowly-rising monotone streams elides almost every write. Every cell
// re-verifies the combined accuracy envelope at quiescence after
// flushing.
func E14ShardedMaxReg(cfg Config) ([]*Table, error) { return e14Sweep().run(cfg) }

func e14Sweep() sweep {
	const k = 2
	return sweep{
		id:    "E14",
		title: "sharded max-register scaling, 95% write / 5% read",
		note: `Each row is one (goroutines, shards, batch) cell over independent
Algorithm 2 shards; shards=1 batch=1 is the unsharded baseline. The max
over S k-mult shards is still k-mult — sharding widens nothing, the
envelope is independent of S. batch=B is the write-elision window:
writes within B-1 of a handle's last flushed value never touch shared
memory, so ascending streams flush only every ~B-th distinct value; the
headroom surfaces as the Buffer term of Bounds (B-1 per handle, not
times n). On a single-CPU host the shard columns serialize and gaps are
muted (as in E12); elision still shows, since it removes work rather
than contention.`,
		readCol:  "reads/s",
		k:        k,
		spec:     []approxobj.Option{approxobj.WithAccuracy(approxobj.Multiplicative(k))},
		shards:   []int{1, 2, 4, 8},
		ops:      200_000,
		quickOps: 30_000,
		seed:     31,
		open: func(gs int, opts []approxobj.Option) (sweepCell, error) {
			r, err := approxobj.NewMaxRegister(opts...)
			if err != nil {
				return nil, err
			}
			return &maxRegisterCell{r, handles(gs, r.Handle), make([]uint64, gs)}, nil
		},
	}
}

// maxRegisterCell is an E14 cell: goroutine i writes the ascending
// interleaved sequence j*gs + i and Reads handle i.
type maxRegisterCell struct {
	*approxobj.MaxRegister
	hs     []approxobj.MaxRegisterHandle
	maxima []uint64 // per goroutine: its last (largest) write
}

func (c *maxRegisterCell) loop(i, ops int, rng *rand.Rand, reads *uint64) func() {
	h, maxima, gs := c.hs[i], c.maxima, uint64(len(c.hs))
	return func() {
		for j := 1; j <= ops; j++ {
			if rng.Float64() < sweepReadFrac {
				h.Read()
				*reads++
			} else {
				v := uint64(j)*gs + uint64(i)
				h.Write(v)
				maxima[i] = v
			}
		}
	}
}

// settled flushes every elision window; the combined read must then be
// inside the flushed envelope of the true maximum.
func (c *maxRegisterCell) settled() error {
	var trueMax uint64
	for i, h := range c.hs {
		h.(approxobj.BatchedMaxRegisterHandle).Flush()
		trueMax = max(trueMax, c.maxima[i])
	}
	return settledWithin(c.Bounds(), trueMax, c.hs[0].Read())
}
