package main

import (
	"fmt"
	"sync"
	"time"

	"approxobj"
)

// ingestWorkload is the write path under closed-loop load.
var ingestWorkload = &workload{
	name: "ingest",
	gen:  func(seed uint64) any { return genRouted(seed, 0, 16) },
	run: func(in any, rc runConfig) (*result, error) {
		return runRouted(in.(*routedInputs), rc, routedShape{routes: 16, checkEvery: time.Second})
	},
}

// serviceWorkload is the production shape: ingest-shaped requests with an
// admission read, on windowed, cached, instrumented objects.
var serviceWorkload = &workload{
	name: "service",
	gen:  func(seed uint64) any { return genRouted(seed, 3, 4) },
	run: func(in any, rc runConfig) (*result, error) {
		return runRouted(in.(*routedInputs), rc, routedShape{routes: 4, service: true, checkEvery: 100 * time.Millisecond})
	},
}

// Service object semantics: a 2 s window of 4 epochs (40 rotations in a
// 20 s run) served through a 1 ms read cache.
const (
	serviceWindow = 2 * time.Second
	serviceEpochs = 4
	serviceStale  = time.Millisecond
)

// routedInputs is one request ring per load goroutine.
type routedInputs struct {
	rings [2][]request
}

func genRouted(seed, stream uint64, routes int) *routedInputs {
	in := &routedInputs{}
	for g := range in.rings {
		in.rings[g] = genRequests(newRNG(seed, stream*16+uint64(g)), routes)
	}
	return in
}

// routedShape is what differs between ingest and service.
type routedShape struct {
	routes     int
	service    bool          // windowed, cached, instrumented objects, admission reads
	checkEvery time.Duration // period of the checked scrape
}

// route is the objects one request path owns: an event counter, a latency
// histogram and a queue-depth max register.
type route struct {
	c *approxobj.Counter
	h *approxobj.Histogram
	m *approxobj.MaxRegister
}

// routedState is the registry a routed workload loads. Object o of the
// checker is route o/3's counter, histogram or max register (o%3 = 0, 1,
// 2); the last object is the exact errors counter.
type routedState struct {
	reg    *approxobj.Registry
	routes []route
	errs   *approxobj.Counter
	objs   []tracked
}

func buildRouted(shape routedShape, tel *approxobj.Telemetry) (*routedState, error) {
	s := &routedState{reg: approxobj.NewRegistry()}
	common := []approxobj.Option{approxobj.WithProcs(2), approxobj.WithShards(4)}
	group := 0
	if tel != nil {
		common = append(common, approxobj.WithTelemetry(tel))
	}
	if shape.service {
		common = append(common, approxobj.WithWindow(serviceWindow, serviceEpochs), approxobj.WithReadCache(serviceStale))
		group = 1
		if err := s.reg.SelfMetrics(tel); err != nil {
			return nil, err
		}
	}
	with := func(opts ...approxobj.Option) []approxobj.Option {
		return append(opts, common...)
	}
	for i := range shape.routes {
		var rt route
		var err error
		name := fmt.Sprintf("route%02d_", i)
		if rt.c, err = s.reg.Counter(name+"events", with(approxobj.WithAccuracy(approxobj.Multiplicative(4)), approxobj.WithBatch(64))...); err != nil {
			return nil, err
		}
		if rt.h, err = s.reg.HistogramObject(name+"latency", with(approxobj.WithAccuracy(approxobj.Multiplicative(2)), approxobj.WithBatch(64))...); err != nil {
			return nil, err
		}
		if rt.m, err = s.reg.MaxRegister(name+"depth", with(approxobj.WithAccuracy(approxobj.Multiplicative(2)), approxobj.WithBatch(16))...); err != nil {
			return nil, err
		}
		warm(rt.c.Acquire, rt.c.N(), readCounter)
		warm(rt.h.Acquire, rt.h.N(), readHistogram)
		warm(rt.m.Acquire, rt.m.N(), readMaxReg)
		s.routes = append(s.routes, rt)
		s.objs = append(s.objs,
			trackedOf(name+"events", approxobj.KindCounter, rt.c.Bounds(), group),
			trackedOf(name+"latency", approxobj.KindHistogram, rt.h.Bounds(), group),
			trackedOf(name+"depth", approxobj.KindMaxRegister, rt.m.Bounds(), group))
	}
	errOpts := []approxobj.Option{approxobj.WithProcs(2)}
	if tel != nil {
		errOpts = append(errOpts, approxobj.WithTelemetry(tel))
	}
	var err error
	if s.errs, err = s.reg.Counter("errors", errOpts...); err != nil {
		return nil, err
	}
	warm(s.errs.Acquire, s.errs.N(), readCounter)
	s.objs = append(s.objs, trackedOf("errors", approxobj.KindCounter, s.errs.Bounds(), 0))
	return s, nil
}

// apply adds request q's effects to a tally.
func (s *routedState) apply(q *request, t *tally) {
	o := 3 * int(q.route)
	t.count[o] += incsPerReq
	t.count[o+1] += obsPerReq
	for _, v := range q.lat {
		t.max[o+1] = max(t.max[o+1], v)
	}
	t.max[o+2] = max(t.max[o+2], q.depth)
	if q.err {
		t.count[len(t.count)-1]++
	}
}

// request runs one pooled request: acquire the route's three handles, read
// the admission quantile (service), do 8 Inc, 8 Observe and 1 Write,
// release the handles, and count a failed request on the errors counter.
func (s *routedState) request(q *request, admission bool, sp *spanLog, id uint64) {
	rt := &s.routes[q.route]
	root := sp.begin("request", -1, id)
	a := sp.begin("pool.acquire", root, id)
	c, rc := rt.c.Acquire()
	h, rh := rt.h.Acquire()
	m, rm := rt.m.Acquire()
	sp.end(a)
	if admission {
		a = sp.begin("histogram.quantile", root, id)
		h.Quantile(0.99)
		sp.end(a)
	}
	a = sp.begin("counter.inc", root, id)
	for range incsPerReq {
		c.Inc()
	}
	sp.end(a)
	a = sp.begin("histogram.observe", root, id)
	for _, v := range q.lat {
		h.Observe(v)
	}
	sp.end(a)
	a = sp.begin("maxreg.write", root, id)
	m.Write(q.depth)
	sp.end(a)
	a = sp.begin("pool.release", root, id)
	rc()
	rh()
	rm()
	sp.end(a)
	if q.err {
		a = sp.begin("errors.inc", root, id)
		s.errs.Do(incOne)
		sp.end(a)
	}
	sp.end(root)
}

// runRouted runs ingest or service: two closed-loop goroutines issuing
// pooled requests. Goroutine 0 also does the inline work: it samples both
// cursors every millisecond for the checker and scrapes the registry every
// checkEvery, open loop — each scrape is timed from when it was due and
// every value in it is checked.
func runRouted(in *routedInputs, rc runConfig, shape routedShape) (*result, error) {
	s, setupS, memPerObj, err := setupMedian(
		func(kept bool) (*routedState, error) {
			// Only the kept instance reports into the tracer's domain; the
			// service builds its own when untraced and for every discarded
			// build.
			tel := rc.tracer.keptDomain(kept)
			if shape.service && tel == nil {
				tel = approxobj.NewTelemetry()
			}
			return buildRouted(shape, tel)
		},
		func(s *routedState) { s.reg.Close() },
		func(s *routedState) int { return len(s.objs) })
	if err != nil {
		return nil, err
	}
	defer s.reg.Close()

	loaders := [2]*loader{newLoader(rc.tracer.log(0)), newLoader(rc.tracer.log(1))}
	groups := []group{{}, {stale: serviceStale, window: serviceWindow, epoch: serviceWindow / serviceEpochs}}
	var rings []*opRing
	for g := range loaders {
		ring := in.rings[g]
		rings = append(rings, newOpRing(len(ring), len(s.objs), func(i int, t *tally) { s.apply(&ring[i], t) }))
	}
	chk := newChecker(rings, []*cursor{&loaders[0].cur, &loaders[1].cur}, newTally(len(s.objs)), s.objs, groups)
	sc := &scraper{reg: s.reg, chk: chk}
	scrapes, scrapeLate := newWindowed(), newWindowed()

	reqOf := func(g int) func(i uint64, sp *spanLog) {
		ring := in.rings[g]
		return func(i uint64, sp *spanLog) { s.request(&ring[i%ringLen], shape.service, sp, i) }
	}
	var ph phases
	var wg sync.WaitGroup
	for g, l := range loaders {
		req := reqOf(g)
		var tick func(now time.Time)
		if g == 0 {
			lastSample, due := time.Now(), time.Now().Add(shape.checkEvery)
			var k uint64
			tick = func(now time.Time) {
				if now.Sub(lastSample) >= time.Millisecond {
					chk.sample()
					lastSample = now
				}
				if now.Before(due) {
					return
				}
				start := time.Now()
				ts, err := sc.take(l.spans, k)
				end := time.Now()
				if w := ph.p.Load(); w > 0 {
					scrapes.lat[w-1].add(end.Sub(due))
					scrapeLate.lat[w-1].add(start.Sub(due))
				}
				sc.check(ts, err)
				due = due.Add(shape.checkEvery)
				k++
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.loop(&ph, req, tick)
		}()
	}
	ph.run(rc)
	wg.Wait()
	allocs := loaders[0].batch(allocBatch, reqOf(0))
	sc.check(sc.take(nil, 0)) // quiescent: the exact errors counter must equal its issued count

	r := &result{}
	l0, l1 := loaders[0].m, loaders[1].m
	r.finish(setupS, memPerObj, windowTiming(l0, l1), ph.rate(l0, l1)*mutsPerReq/1e6, allocs, chk, l0.total()+l1.total())
	r.percentiles(&r.e2e, "scrape", windowTiming(scrapes))
	r.percentiles(&r.e2e, "scrape_lateness", windowTiming(scrapeLate))
	if rc.tracer != nil {
		issued := loaders[0].cur.done.Load() + loaders[1].cur.done.Load()
		if err := rc.tracer.layers(r, stepsOf(s.reg), issued*mutsPerReq); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// stepsOf sums the shared-memory steps the registry attributes to its
// objects.
func stepsOf(reg *approxobj.Registry) uint64 {
	var steps uint64
	for _, o := range reg.Snapshot() {
		steps += o.Steps
	}
	return steps
}
