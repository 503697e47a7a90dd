package main

import (
	"sync"
	"time"

	"approxobj"
)

// queryWorkload is the read path: cached reads on wide objects while a
// writer mutates the same objects.
var queryWorkload = &workload{
	name: "query",
	gen:  func(seed uint64) any { return &queryInputs{writes: genWrites(newRNG(seed, 32))} },
	run:  func(in any, rc runConfig) (*result, error) { return runQuery(in.(*queryInputs), rc) },
}

const (
	queryStale     = time.Millisecond
	writesPerStep  = 3 // Inc, Observe, Write
	queryReadEvery = 100 * time.Millisecond
)

type queryInputs struct {
	writes []write
}

// queryState holds the three shared objects (checker objects 0, 1, 2) and
// the exact errors counter (object 3).
type queryState struct {
	reg  *approxobj.Registry
	c    *approxobj.Counter
	h    *approxobj.Histogram
	m    *approxobj.MaxRegister
	errs *approxobj.Counter
	objs []tracked
}

func buildQuery(tel *approxobj.Telemetry) (*queryState, error) {
	s := &queryState{reg: approxobj.NewRegistry()}
	with := func(opts ...approxobj.Option) []approxobj.Option {
		opts = append(opts, approxobj.WithProcs(2))
		if tel != nil {
			opts = append(opts, approxobj.WithTelemetry(tel))
		}
		return opts
	}
	wide := func(acc approxobj.Accuracy) []approxobj.Option {
		return with(approxobj.WithAccuracy(acc), approxobj.WithShards(16), approxobj.WithBatch(8), approxobj.WithReadCache(queryStale))
	}
	var err error
	if s.c, err = s.reg.Counter("events", wide(approxobj.Multiplicative(4))...); err != nil {
		return nil, err
	}
	if s.h, err = s.reg.HistogramObject("latency", wide(approxobj.Multiplicative(2))...); err != nil {
		return nil, err
	}
	if s.m, err = s.reg.MaxRegister("depth", wide(approxobj.Multiplicative(2))...); err != nil {
		return nil, err
	}
	if s.errs, err = s.reg.Counter("errors", with()...); err != nil {
		return nil, err
	}
	warm(s.c.Acquire, s.c.N(), readCounter)
	warm(s.h.Acquire, s.h.N(), readHistogram)
	warm(s.m.Acquire, s.m.N(), readMaxReg)
	warm(s.errs.Acquire, s.errs.N(), readCounter)
	s.objs = []tracked{
		trackedOf("events", approxobj.KindCounter, s.c.Bounds(), 1),
		trackedOf("latency", approxobj.KindHistogram, s.h.Bounds(), 1),
		trackedOf("depth", approxobj.KindMaxRegister, s.m.Bounds(), 1),
		trackedOf("errors", approxobj.KindCounter, s.errs.Bounds(), 0),
	}
	return s, nil
}

func applyWrite(w *write, t *tally) {
	t.count[0]++
	t.count[1]++
	t.max[1] = max(t.max[1], w.lat)
	t.max[2] = max(t.max[2], w.depth)
	if w.err {
		t.count[3]++
	}
}

// readRequest is one read request: counter Read, histogram Quantile(0.99)
// and max-register Read.
func readRequest(c approxobj.CounterHandle, h approxobj.HistogramHandle, m approxobj.MaxRegisterHandle, sp *spanLog, id uint64) {
	root := sp.begin("request", -1, id)
	a := sp.begin("counter.read", root, id)
	c.Read()
	sp.end(a)
	a = sp.begin("histogram.quantile", root, id)
	h.Quantile(0.99)
	sp.end(a)
	a = sp.begin("maxreg.read", root, id)
	m.Read()
	sp.end(a)
	sp.end(root)
}

// runQuery runs the reader (goroutine 0) and the writer (goroutine 1). Both
// hold their handles for the whole run. Every 100 ms the reader also makes
// one checked read request, outside its timing.
func runQuery(in *queryInputs, rc runConfig) (*result, error) {
	s, setupS, memPerObj, err := setupMedian(
		func(kept bool) (*queryState, error) { return buildQuery(rc.tracer.keptDomain(kept)) },
		func(s *queryState) { s.reg.Close() },
		func(s *queryState) int { return len(s.objs) })
	if err != nil {
		return nil, err
	}
	defer s.reg.Close()

	reader, writer := newLoader(rc.tracer.log(0)), newLoader(rc.tracer.log(1))
	ring := newOpRing(len(in.writes), len(s.objs), func(i int, t *tally) { applyWrite(&in.writes[i], t) })
	chk := newChecker([]*opRing{nil, ring}, []*cursor{&reader.cur, &writer.cur}, newTally(len(s.objs)),
		s.objs, []group{{}, {stale: queryStale}})

	var ph phases
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c, relC := s.c.Acquire()
		h, relH := s.h.Acquire()
		m, relM := s.m.Acquire()
		defer func() { relC(); relH(); relM() }()
		lastSample, due := time.Now(), time.Now().Add(queryReadEvery)
		reader.loop(&ph, func(i uint64, sp *spanLog) { readRequest(c, h, m, sp, i) }, func(now time.Time) {
			if now.Sub(lastSample) >= time.Millisecond {
				chk.sample()
				lastSample = now
			}
			if now.Before(due) {
				return
			}
			ts := chk.now()
			events, count, p99, depth := c.Read(), h.Count(), h.Quantile(0.99), m.Read()
			chk.value(0, events, ts)
			chk.value(1, count, ts)
			chk.atMost(1, p99)
			chk.value(2, depth, ts)
			due = due.Add(queryReadEvery)
		})
	}()
	go func() {
		defer wg.Done()
		c, relC := s.c.Acquire()
		h, relH := s.h.Acquire()
		m, relM := s.m.Acquire()
		e, relE := s.errs.Acquire()
		defer func() { relC(); relH(); relM(); relE() }()
		writer.loop(&ph, func(i uint64, sp *spanLog) {
			w := &in.writes[i%ringLen]
			c.Inc()
			h.Observe(w.lat)
			m.Write(w.depth)
			if w.err {
				e.Inc()
			}
		}, nil)
	}()
	ph.run(rc)
	wg.Wait()
	c, relC := s.c.Acquire()
	h, relH := s.h.Acquire()
	m, relM := s.m.Acquire()
	allocs := allocsPer(allocBatch, func(k uint64) { readRequest(c, h, m, nil, k) })
	relC()
	relH()
	relM()
	// Quiescent check: every handle is released, so every write is
	// published; the sample must predate the scrape by the staleness.
	chk.sample()
	time.Sleep(2 * queryStale)
	sc := &scraper{reg: s.reg, chk: chk}
	sc.check(sc.take(nil, 0))

	r := &result{}
	r.finish(setupS, memPerObj, windowTiming(reader.m), ph.rate(writer.m)*writesPerStep/1e6, allocs, chk, reader.m.total())
	r.infoMetric(&r.e2e, "read_mops", "Mreq/s", ph.rate(reader.m)/1e6)
	if rc.tracer != nil {
		if err := rc.tracer.layers(r, stepsOf(s.reg), writer.cur.done.Load()*writesPerStep); err != nil {
			return nil, err
		}
	}
	return r, nil
}
