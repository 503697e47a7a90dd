package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"

	"approxobj"
)

// sweep is one kind's goroutines x shards x batch scaling experiment
// (E12, E14, E15, E16), driven through the public spec API: every
// (goroutines, shards, batch) cell builds one object, times gs
// goroutines of mixed operations against it (sweepReadFrac reads),
// then re-verifies the accuracy contract at quiescence after flushing.
// The sweep owns the loops over cells, the timing, the table and the
// record params; the kind contributes its data and, through open, its
// goroutine loop and quiescent check.
type sweep struct {
	id, title, note string
	readCol         string             // header of the reads-per-second column
	k               uint64             // the kind's accuracy parameter (0: none, and no k param)
	spec            []approxobj.Option // the kind's options beyond procs, shards and batch
	shards          []int              // full-mode shard counts; -quick runs 1 and 4
	ops, quickOps   int                // operations per goroutine
	seed            int64              // goroutine i draws from rand.NewSource(Config.Seed + i + seed)
	open            func(gs int, opts []approxobj.Option) (sweepCell, error)
}

// sweepCell is the kind's side of one built sweep cell.
type sweepCell interface {
	Bounds() approxobj.Bounds
	// loop is goroutine i's untimed setup; it returns the goroutine's
	// timed loop of ops operations, which counts its reads in *reads.
	loop(i, ops int, rng *rand.Rand, reads *uint64) func()
	// settled flushes every handle and checks the quiescent read
	// against the true value the loops recorded.
	settled() error
}

// sweepReadFrac is the read share of every sweep's operations.
const sweepReadFrac = 0.05

// cell builds the sweep's object for gs goroutines on s shards with
// batch b.
func (sw sweep) cell(gs, s, b int) (sweepCell, error) {
	return sw.open(gs, append([]approxobj.Option{approxobj.WithProcs(gs), approxobj.WithShards(s), approxobj.WithBatch(b)}, sw.spec...))
}

func (sw sweep) run(cfg Config) ([]*Table, error) {
	maxG := runtime.GOMAXPROCS(0)
	gss, shardCounts, ops := []int{1, 2, 4}, sw.shards, sw.ops
	if maxG > 4 {
		gss = append(gss, maxG)
	}
	if cfg.Quick {
		gss, shardCounts, ops = []int{1, 2}, []int{1, 4}, sw.quickOps
	}
	title := fmt.Sprintf("%s (GOMAXPROCS=%d)", sw.title, maxG)
	if sw.k != 0 {
		title = fmt.Sprintf("%s (k=%d, GOMAXPROCS=%d)", sw.title, sw.k, maxG)
	}
	t := &Table{ID: sw.id, Title: title, Note: sw.note,
		Header: []string{"goroutines", "shards", "batch", "Mops/s", "ns/op", sw.readCol}}

	for _, gs := range gss {
		for _, s := range shardCounts {
			for _, b := range []int{1, 64} {
				c, err := sw.cell(gs, s, b)
				if err != nil {
					return nil, err
				}
				reads := make([]uint64, gs)
				elapsed := race(gs, func(i int) func() {
					return c.loop(i, ops, rand.New(rand.NewSource(cfg.Seed+int64(i)+sw.seed)), &reads[i])
				})
				if err := c.settled(); err != nil {
					return nil, fmt.Errorf("bench: %s (goroutines=%d S=%d B=%d): %w", sw.id, gs, s, b, err)
				}
				var totalReads uint64
				for _, r := range reads {
					totalReads += r
				}
				totalOps := float64(gs * ops)
				nsPerOp := float64(elapsed.Nanoseconds()) / totalOps
				t.AddRow(gs, s, b, totalOps/elapsed.Seconds()/1e6, fmt.Sprintf("%.1f", nsPerOp),
					fmt.Sprintf("%.0f", float64(totalReads)/elapsed.Seconds()))
				params := map[string]string{"goroutines": strconv.Itoa(gs), "shards": strconv.Itoa(s), "batch": strconv.Itoa(b)}
				if sw.k != 0 {
					params["k"] = strconv.FormatUint(sw.k, 10)
				}
				t.AddRecord(Record{Params: params, NsPerOp: nsPerOp, Envelope: EnvelopeOf(c.Bounds())})
			}
		}
	}
	return []*Table{t}, nil
}
