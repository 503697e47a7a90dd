package main

import (
	"fmt"
	"sync"
	"time"

	"approxobj"
)

// scrapeWorkload is the read side of a metrics endpoint under open-loop
// load: many objects, few writes.
var scrapeWorkload = &workload{
	name: "scrape",
	gen:  genScrape,
	run:  func(in any, rc runConfig) (*result, error) { return runScrape(in.(*scrapeInputs), rc) },
}

const (
	scrapeObjects = 256 // 64 of each kind: counters, max registers, snapshots, histograms
	perKind       = scrapeObjects / 4
	prefillObs    = 256 // observations per histogram before the run: about 60 occupied buckets
	writerPeriod  = time.Millisecond
	writerBatch   = 100
	scrapePeriod  = 10 * time.Millisecond

	scrapeAllocBatch = 16 // scrapes the allocation count runs, a few ms each
)

// scrapeInputs is the writer's mutation ring and the histograms' prefill.
type scrapeInputs struct {
	muts    []mutation
	prefill [perKind][prefillObs]uint64
}

func genScrape(seed uint64) any {
	in := &scrapeInputs{muts: genMutations(newRNG(seed, 16), scrapeObjects)}
	r := newRNG(seed, 17)
	for h := range in.prefill {
		for j := range in.prefill[h] {
			in.prefill[h][j] = wideValue(r)
		}
	}
	return in
}

// scrapeState is the 256-object registry. Object o is of kind o/64 in the
// order counter, max register, snapshot, histogram; object 256 is the
// exact errors counter.
type scrapeState struct {
	reg      *approxobj.Registry
	counters []*approxobj.Counter
	maxregs  []*approxobj.MaxRegister
	snaps    []*approxobj.Snapshot
	hists    []*approxobj.Histogram
	errs     *approxobj.Counter
	objs     []tracked
}

// buildScrape registers the 256 objects — one slot each, 4 shards,
// unbatched, uncached — and prefills every histogram.
func buildScrape(in *scrapeInputs, tel *approxobj.Telemetry) (*scrapeState, error) {
	s := &scrapeState{reg: approxobj.NewRegistry()}
	opts := func(acc approxobj.Accuracy) []approxobj.Option {
		o := []approxobj.Option{approxobj.WithProcs(1), approxobj.WithShards(4), approxobj.WithAccuracy(acc)}
		if tel != nil {
			o = append(o, approxobj.WithTelemetry(tel))
		}
		return o
	}
	for i := range perKind {
		name := fmt.Sprintf("obj%03d", i)
		c, err := s.reg.Counter(name, opts(approxobj.Multiplicative(4))...)
		if err != nil {
			return nil, err
		}
		warm(c.Acquire, c.N(), readCounter)
		s.counters = append(s.counters, c)
		s.objs = append(s.objs, trackedOf(name, approxobj.KindCounter, c.Bounds(), 0))
	}
	for i := range perKind {
		name := fmt.Sprintf("obj%03d", perKind+i)
		m, err := s.reg.MaxRegister(name, opts(approxobj.Multiplicative(2))...)
		if err != nil {
			return nil, err
		}
		warm(m.Acquire, m.N(), readMaxReg)
		s.maxregs = append(s.maxregs, m)
		s.objs = append(s.objs, trackedOf(name, approxobj.KindMaxRegister, m.Bounds(), 0))
	}
	for i := range perKind {
		name := fmt.Sprintf("obj%03d", 2*perKind+i)
		sn, err := s.reg.SnapshotObject(name, opts(approxobj.Exact())...)
		if err != nil {
			return nil, err
		}
		warm(sn.Acquire, sn.N(), readSnapshot)
		s.snaps = append(s.snaps, sn)
		s.objs = append(s.objs, trackedOf(name, approxobj.KindSnapshot, sn.Bounds(), 0))
	}
	for i := range perKind {
		name := fmt.Sprintf("obj%03d", 3*perKind+i)
		h, err := s.reg.HistogramObject(name, opts(approxobj.Multiplicative(2))...)
		if err != nil {
			return nil, err
		}
		hh, release := h.Acquire()
		for _, v := range in.prefill[i] {
			hh.Observe(v)
		}
		release()
		s.hists = append(s.hists, h)
		s.objs = append(s.objs, trackedOf(name, approxobj.KindHistogram, h.Bounds(), 0))
	}
	c, err := s.reg.Counter("errors", opts(approxobj.Exact())...)
	if err != nil {
		return nil, err
	}
	warm(c.Acquire, c.N(), readCounter)
	s.errs = c
	s.objs = append(s.objs, trackedOf("errors", approxobj.KindCounter, c.Bounds(), 0))
	return s, nil
}

// applyMutation adds mutation m's effects to a tally. A snapshot's value
// is its update count (the writer writes 1, 2, 3, ... to each), so it is
// tallied as a count.
func applyMutation(m *mutation, t *tally) {
	o := int(m.obj)
	if o/perKind == 1 {
		t.max[o] = max(t.max[o], m.val)
	} else {
		t.count[o]++
	}
	if m.err {
		t.count[scrapeObjects]++
	}
}

// mutate applies one mutation through a pooled handle. seq holds each
// snapshot's update count.
func (s *scrapeState) mutate(m *mutation, seq []uint64) {
	o := int(m.obj)
	switch i := o % perKind; o / perKind {
	case 0:
		h, release := s.counters[i].Acquire()
		h.Inc()
		release()
	case 1:
		h, release := s.maxregs[i].Acquire()
		h.Write(m.val)
		release()
	case 2:
		seq[i]++
		h, release := s.snaps[i].Acquire()
		h.Update(seq[i])
		release()
	default:
		h, release := s.hists[i].Acquire()
		h.Observe(m.val)
		release()
	}
	if m.err {
		s.errs.Do(incOne)
	}
}

// runScrape runs the writer and the scraper, each in its own open loop.
func runScrape(in *scrapeInputs, rc runConfig) (*result, error) {
	s, setupS, memPerObj, err := setupMedian(
		func(kept bool) (*scrapeState, error) { return buildScrape(in, rc.tracer.keptDomain(kept)) },
		func(s *scrapeState) { s.reg.Close() },
		func(s *scrapeState) int { return len(s.objs) })
	if err != nil {
		return nil, err
	}
	defer s.reg.Close()

	var writer cursor
	base := newTally(len(s.objs))
	for i := range in.prefill {
		for _, v := range in.prefill[i] {
			o := 3*perKind + i
			base.count[o]++
			base.max[o] = max(base.max[o], v)
		}
	}
	ring := newOpRing(len(in.muts), len(s.objs), func(i int, t *tally) { applyMutation(&in.muts[i], t) })
	chk := newChecker([]*opRing{ring}, []*cursor{&writer}, base, s.objs, []group{{}})
	sc := &scraper{reg: s.reg, chk: chk}
	writes, writeLate := newWindowed(), newWindowed()
	scrapes, scrapeLate := newWindowed(), newWindowed()
	wlog, slog := rc.tracer.log(0), rc.tracer.log(1)

	var ph phases
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		seq := make([]uint64, perKind)
		openLoop(&ph, writerPeriod, writes, writeLate, func(k uint64) {
			var sp *spanLog
			if k&tracedMask == 0 {
				sp = wlog
			}
			root := sp.begin("request", -1, k)
			pos := k * writerBatch
			writer.inv.Store(pos + writerBatch)
			for j := range uint64(writerBatch) {
				s.mutate(&in.muts[(pos+j)%ringLen], seq)
			}
			writer.done.Store(pos + writerBatch)
			sp.end(root)
		}, nil)
	}()
	go func() {
		defer wg.Done()
		var ts time.Duration
		var err error
		openLoop(&ph, scrapePeriod, scrapes, scrapeLate,
			func(k uint64) { ts, err = sc.take(slog, k) },
			func(uint64) { sc.check(ts, err) })
	}()
	ph.run(rc)
	wg.Wait()
	allocs := allocsPer(scrapeAllocBatch, func(uint64) {
		if err := sc.scrape(nil, 0); err != nil {
			chk.fail("scrape: %v", err)
		}
	})
	sc.check(sc.take(nil, 0))

	r := &result{}
	// The writer runs on a fixed schedule, so its rate over wall time would
	// read the schedule; its rate over the time its batches ran reads the
	// cost of a mutation.
	r.finish(setupS, memPerObj, windowTiming(scrapes), busyRate(writes)*writerBatch/1e6, allocs, chk, scrapes.total())
	r.percentiles(&r.e2e, "scrape_lateness", windowTiming(scrapeLate))
	r.percentiles(&r.e2e, "writer_batch", windowTiming(writes))
	r.percentiles(&r.e2e, "writer_lateness", windowTiming(writeLate))
	if rc.tracer != nil {
		mutations := writer.done.Load() + perKind*prefillObs
		if err := rc.tracer.layers(r, stepsOf(s.reg), mutations); err != nil {
			return nil, err
		}
	}
	return r, nil
}
