package main

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"time"

	"approxobj"
	"approxobj/expose"
)

// Load phases: the measured phase is split into measureWindows equal
// windows, numbered from 1, so each metric can be read per window and
// reported as the median window — a transient stall on a shared machine
// then moves one window, not the result. Load goroutines record samples
// and counts only inside a window (phase 0 is the warm-up) and return at
// stop.
const (
	phaseStop      int32 = -1
	measureWindows       = 10
)

const (
	timedMask  = 15      // closed-loop requests are timed 1 in 16
	tracedMask = 63      // and traced 1 in 64
	setupReps  = 31      // set-ups per run; setup_s is their median
	samplerCap = 1 << 16 // per window
)

// phases drives one workload run through warm-up, the measured windows and
// stop, recording when each window ended.
type phases struct {
	p      atomic.Int32
	bounds [measureWindows + 1]time.Time
}

func (ph *phases) run(rc runConfig) {
	time.Sleep(rc.warmup)
	ph.bounds[0] = time.Now()
	for w := range measureWindows {
		ph.p.Store(int32(w + 1))
		time.Sleep(time.Until(ph.bounds[0].Add(rc.measure * time.Duration(w+1) / measureWindows)))
		ph.bounds[w+1] = time.Now()
	}
	ph.p.Store(phaseStop)
}

// rate returns the median over windows of the per-second rate of the
// windowed counts, summed across ws.
func (ph *phases) rate(ws ...*windowed) float64 {
	var per []float64
	for w := range measureWindows {
		var n uint64
		for _, x := range ws {
			n += x.n[w]
		}
		per = append(per, float64(n)/ph.bounds[w+1].Sub(ph.bounds[w]).Seconds())
	}
	return median(per)
}

// busyRate returns the median over windows of x's counts per second of
// busy time: the rate an open loop's calls sustain while they run,
// leaving out the sleeps between them, so it follows the cost of a call
// rather than the loop's schedule.
func busyRate(x *windowed) float64 {
	var per []float64
	for w := range measureWindows {
		per = append(per, ratio(float64(x.n[w]), x.busy[w].Seconds()))
	}
	return median(per)
}

// windowed is one goroutine's measurements, kept per window: how many
// operations completed, the latency samples of the timed ones and, for an
// open loop, how long its calls ran.
type windowed struct {
	n    [measureWindows]uint64
	busy [measureWindows]time.Duration
	lat  [measureWindows]*sampler
}

func newWindowed() *windowed {
	w := &windowed{}
	for i := range w.lat {
		w.lat[i] = newSampler(samplerCap)
	}
	return w
}

func (w *windowed) total() uint64 {
	var n uint64
	for _, x := range w.n {
		n += x
	}
	return n
}

// loader is one load goroutine issuing requests from its input ring.
type loader struct {
	cur   cursor
	m     *windowed
	spans *spanLog
}

func newLoader(spans *spanLog) *loader {
	return &loader{m: newWindowed(), spans: spans}
}

// loop issues req(i) for i = 0, 1, ... until the stop phase, each as
// soon as the previous one returns. Every 16th request is timed and every
// 64th is traced (when spans are on); each timed request is followed by
// tick, the hook for inline work that falls due at a time — checks and
// scrapes — which is never timed as part of a request.
func (l *loader) loop(ph *phases, req func(i uint64, sp *spanLog), tick func(now time.Time)) {
	for i := uint64(0); ; i++ {
		p := ph.p.Load()
		if p == phaseStop {
			return
		}
		l.cur.inv.Store(i + 1)
		if i&timedMask != 0 {
			req(i, nil)
			l.cur.done.Store(i + 1)
			if p > 0 {
				l.m.n[p-1]++
			}
			continue
		}
		var sp *spanLog
		if i&tracedMask == 0 {
			sp = l.spans
		}
		t0 := time.Now()
		req(i, sp)
		t1 := time.Now()
		l.cur.done.Store(i + 1)
		if p > 0 {
			l.m.n[p-1]++
			l.m.lat[p-1].add(t1.Sub(t0))
		}
		if tick != nil {
			tick(t1)
		}
	}
}

// allocBatch is how many requests the allocation count runs.
const allocBatch = 1024

// batch continues l's request sequence with n untimed requests on the
// calling goroutine, publishing the cursor as loop does so the checker
// still accounts for them, and returns the heap allocations per request.
func (l *loader) batch(n int, req func(i uint64, sp *spanLog)) float64 {
	next := l.cur.done.Load()
	return allocsPer(n, func(k uint64) {
		i := next + k
		l.cur.inv.Store(i + 1)
		req(i, nil)
		l.cur.done.Store(i + 1)
	})
}

// allocsPer runs op n times on the calling goroutine and returns the heap
// allocations per call. It runs after the load goroutines have stopped,
// so the count is the request path's own, not the checker's or a
// concurrent scrape's.
func allocsPer(n int, op func(k uint64)) float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for k := range uint64(n) {
		op(k)
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-before) / float64(n)
}

// openLoop calls op(k) once every period until the stop phase, whether or
// not earlier calls ran late. Each call is timed from when it was due, so
// a stall also counts against the calls queued behind it; late records
// how far behind schedule each call started, and m.busy how long the
// calls ran. post, when set, runs after each call outside its timing.
func openLoop(ph *phases, period time.Duration, m, late *windowed, op, post func(k uint64)) {
	due := time.Now()
	for k := uint64(0); ; k++ {
		// Sleep to within a tenth of a period of the due time, then yield
		// until it: a sleep alone overshoots by up to a timer tick, which
		// would add the timer's jitter to every latency measured from due.
		if wait := time.Until(due) - period/10; wait > 0 {
			time.Sleep(wait)
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		p := ph.p.Load()
		if p == phaseStop {
			return
		}
		start := time.Now()
		op(k)
		end := time.Now()
		if p > 0 {
			m.n[p-1]++
			m.busy[p-1] += end.Sub(start)
			m.lat[p-1].add(end.Sub(due))
			late.lat[p-1].add(start.Sub(due))
		}
		if post != nil {
			post(k)
		}
		due = due.Add(period)
	}
}

// scraper renders a registry the way a Prometheus scrape does and checks
// every value in the rendering.
type scraper struct {
	reg *approxobj.Registry
	buf bytes.Buffer
	chk *checker
}

// scrape renders one exposition into s.buf. A traced scrape additionally
// takes a Registry.Snapshot of its own, so the trace can split a scrape
// into its registry and exposition parts.
func (s *scraper) scrape(sp *spanLog, id uint64) error {
	s.buf.Reset()
	root := sp.begin("scrape", -1, id)
	if sp != nil {
		a := sp.begin("registry.snapshot", root, id)
		s.reg.Snapshot()
		sp.end(a)
	}
	w := sp.begin("expose.write", root, id)
	err := expose.WriteRegistry(&s.buf, s.reg)
	sp.end(w)
	sp.end(root)
	return err
}

// take samples the load cursors and scrapes; ts is when the scrape
// started, on the checker's clock.
func (s *scraper) take(sp *spanLog, id uint64) (ts time.Duration, err error) {
	s.chk.sample()
	ts = s.chk.now()
	return ts, s.scrape(sp, id)
}

// check verifies every tracked value of the scrape take returned.
func (s *scraper) check(ts time.Duration, err error) {
	if err != nil {
		s.chk.fail("scrape: %v", err)
		return
	}
	s.chk.exposition(s.buf.Bytes(), ts)
}

// setupMedian builds the instance a run uses (build(true)), then builds
// and releases setupReps more (build(false)) to time set-up, and returns
// the median build time and the heap bytes the kept instance retains per
// object (measured after a GC on both sides, so it is the objects' steady
// footprint, not allocator churn). The kept instance is built first, on a
// quiet heap, so its memory layout — which objects share cache lines —
// does not depend on how earlier builds were collected.
func setupMedian[S any](build func(kept bool) (S, error), release func(S), objects func(S) int) (s S, secs, memPerObj float64, err error) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap0 := ms.HeapAlloc
	if s, err = build(true); err != nil {
		return s, 0, 0, err
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	memPerObj = float64(int64(ms.HeapAlloc)-int64(heap0)) / float64(objects(s))
	var times []float64
	for range setupReps {
		runtime.GC()
		t0 := time.Now()
		x, err := build(false)
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			return s, 0, 0, err
		}
		release(x)
	}
	return s, median(times), memPerObj, nil
}

// warm leases all n slots of a pooled object, reads once through each
// handle, and releases them, so the handles and their read scratch are
// built during set-up, one after another, instead of by whichever load
// goroutine first leases each slot: memory allocated concurrently lands
// by scheduling luck, and whether a reader's and a writer's state share a
// cache line would then change from run to run.
func warm[H any](acquire func() (H, func()), n int, read func(H)) {
	releases := make([]func(), n)
	for i := range releases {
		var h H
		h, releases[i] = acquire()
		read(h)
	}
	for _, release := range releases {
		release()
	}
}

// incOne is the errors counter's mutation, a plain function so a pooled
// Do call allocates no closure.
func incOne(h approxobj.CounterHandle) { h.Inc() }

// The reads warm makes through each kind of handle.
func readCounter(h approxobj.CounterHandle)     { h.Read() }
func readMaxReg(h approxobj.MaxRegisterHandle)  { h.Read() }
func readSnapshot(h approxobj.SnapshotHandle)   { h.Scan() }
func readHistogram(h approxobj.HistogramHandle) { h.Quantile(0.99) }
