package bench

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"approxobj"
)

// E13Registry is the serving-scenario experiment for the spec/registry
// surface: a registry of named objects (an approximate request counter, an
// exact error counter, an approximate high-water max register) hammered by
// worker goroutines that borrow handles from the per-object pools
// (Acquire/Do, never a slot index), while a monitor goroutine polls
// Registry.Snapshot through the reserved snapshot slot. It reports worker
// throughput and snapshot cost, and verifies every polled value against
// the object's own reported Bounds.
func E13Registry(cfg Config) ([]*Table, error) {
	maxG := runtime.GOMAXPROCS(0)
	workerCounts := []int{1, 2, 4}
	if maxG > 4 {
		workerCounts = append(workerCounts, maxG)
	}
	opsPer := 200_000
	if cfg.Quick {
		workerCounts = []int{1, 2}
		opsPer = 30_000
	}

	t := &Table{
		ID:    "E13",
		Title: fmt.Sprintf("registry + pooled handles under mixed traffic (GOMAXPROCS=%d)", maxG),
		Note: `Workers drive three named objects through pooled handles while a
monitor polls Registry.Snapshot concurrently. The k-multiplicative
request counter takes 95% of the traffic; the exact error counter 5%;
every worker bumps the high-water register. Snapshot reads go through
the registry's reserved process slot, so they never contend with workers
for pool slots; each polled value is re-checked against the object's
reported Bounds.`,
		Header: []string{"workers", "Mops/s", "ns/op", "snapshots", "ns/snapshot"},
	}

	for _, gs := range workerCounts {
		reg := approxobj.NewRegistry()
		// k must satisfy k >= sqrt(gs+1) (the +1 is the snapshot slot).
		k := sqrtCeil(gs + 1)
		if k < 4 {
			k = 4
		}
		requests, err := reg.Counter("requests",
			approxobj.WithProcs(gs),
			approxobj.WithAccuracy(approxobj.Multiplicative(k)),
			approxobj.WithShards(4),
			approxobj.WithBatch(64),
		)
		if err != nil {
			return nil, err
		}
		errors, err := reg.Counter("errors", approxobj.WithProcs(gs))
		if err != nil {
			return nil, err
		}
		peak, err := reg.MaxRegister("peak-batch",
			approxobj.WithProcs(gs),
			approxobj.WithAccuracy(approxobj.Multiplicative(2)),
		)
		if err != nil {
			return nil, err
		}

		stop := make(chan struct{})
		var snapshots uint64
		var snapElapsed time.Duration
		var snapErr error
		var snapWG sync.WaitGroup
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			// Ceiling on the true value of every object: counters total at
			// most gs*opsPer increments, and every max-register write is
			// id*opsPer + j < gs*opsPer.
			ceiling := uint64(gs * opsPer)
			for {
				select {
				case <-stop:
					return
				default:
				}
				start := time.Now()
				for _, s := range reg.Snapshot() {
					if !s.Bounds.ContainsRange(0, ceiling, s.Value) {
						snapErr = fmt.Errorf("bench: snapshot of %s saw %d outside envelope %+v for any value in [0, %d]",
							s.Name, s.Value, s.Bounds, ceiling)
						return
					}
				}
				snapElapsed += time.Since(start)
				snapshots++
			}
		}()

		elapsed := race(gs, func(id int) func() {
			return func() {
				req, releaseReq := requests.Acquire()
				defer releaseReq()
				errH, releaseErr := errors.Acquire()
				defer releaseErr()
				peak.Do(func(h approxobj.MaxRegisterHandle) {
					for j := 0; j < opsPer; j++ {
						if j%20 == 19 {
							errH.Inc()
						} else {
							req.Inc()
						}
						if j%1024 == 0 {
							h.Write(uint64(id*opsPer + j))
						}
					}
				})
			}
		})
		close(stop)
		snapWG.Wait()
		if snapErr != nil {
			return nil, snapErr
		}

		// The monitor may never have been scheduled (observed on 1-CPU
		// hosts at workers=1): force at least one envelope verification,
		// now quiescent.
		ceiling := uint64(gs * opsPer)
		for _, s := range reg.Snapshot() {
			if !s.Bounds.ContainsRange(0, ceiling, s.Value) {
				return nil, fmt.Errorf("bench: quiescent snapshot of %s saw %d outside envelope %+v for any value in [0, %d]",
					s.Name, s.Value, s.Bounds, ceiling)
			}
		}

		// Quiescent check: workers released (and flushed), so the exact
		// error counter must account for every increment.
		wantErrors := uint64(gs * (opsPer / 20))
		var gotErrors uint64
		errors.Do(func(h approxobj.CounterHandle) { gotErrors = h.Read() })
		if gotErrors != wantErrors {
			return nil, fmt.Errorf("bench: exact error counter read %d, want %d", gotErrors, wantErrors)
		}

		totalOps := float64(gs * opsPer)
		nsPerOp := float64(elapsed.Nanoseconds()) / totalOps
		nsPerSnap := 0.0
		if snapshots > 0 {
			nsPerSnap = float64(snapElapsed.Nanoseconds()) / float64(snapshots)
		}
		t.AddRow(gs, totalOps/elapsed.Seconds()/1e6, fmt.Sprintf("%.1f", nsPerOp),
			snapshots, fmt.Sprintf("%.0f", nsPerSnap))
		t.AddRecord(Record{
			Params: map[string]string{
				"workers": strconv.Itoa(gs),
				"k":       strconv.FormatUint(k, 10),
			},
			NsPerOp: nsPerOp,
		})
	}
	return []*Table{t}, nil
}
