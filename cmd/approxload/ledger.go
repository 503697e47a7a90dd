package main

import (
	"bytes"
	"time"

	"approxobj"
	"approxobj/expose"
	"approxobj/internal/core"
	"approxobj/internal/prim"
)

// ledgerRows is how many timed rows the ledger splits its budget over.
const ledgerRows = 28

// sinkU keeps read results alive so the compiler cannot drop the reads.
var sinkU uint64

// nsPerOp times op, which runs its operation n times, within budget: it
// doubles n until one call takes a tenth of a chunk, then times five
// chunks of that size and returns the median ns per operation.
func nsPerOp(budget time.Duration, op func(n int)) float64 {
	chunk := budget / 5
	n := 1
	for {
		t0 := time.Now()
		op(n)
		if d := time.Since(t0); d >= chunk/10 || n >= 1<<30 {
			n = max(1, int(float64(n)*float64(chunk)/float64(max(d, 1))))
			break
		}
		n *= 2
	}
	var per []float64
	for range 5 {
		t0 := time.Now()
		op(n)
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}

// ledger times the same kind of operation through each successive layer,
// on one goroutine, and adds each row's ns/op and its ratio over the
// layer below to r. The layers, bottom up: a prim register, Algorithm 1
// (core), a public handle with and without buffering (shard.buffer), the
// combined read over S shards (shard.combine), the read cache, the epoch
// window, the handle pool, telemetry on against off, and the scrape side
// (registry snapshot, then expose rendering).
func ledger(r *result, budget time.Duration, seed uint64) error {
	row := budget / ledgerRows
	ns := func(name string, op func(n int)) float64 {
		v := nsPerOp(row, op)
		r.layerMetric(name, "ns", v)
		return v
	}
	vals := genRequests(newRNG(seed, 48), 1)
	lat := func(i int) uint64 { return vals[i%ringLen].lat[i%obsPerReq] }

	// prim: the base objects every algorithm is made of.
	f := prim.NewFactory(1)
	p := f.Proc(0)
	reg, cas := f.Reg(), f.CASReg()
	regWrite := ns("prim.reg_write_ns", func(n int) {
		for i := range n {
			reg.Write(p, uint64(i))
		}
	})
	ns("prim.reg_read_ns", func(n int) {
		var s uint64
		for range n {
			s += reg.Read(p)
		}
		sinkU += s
	})
	ns("prim.cas_ns", func(n int) {
		v := cas.Peek()
		for range n {
			cas.CompareAndSwap(p, v, v+1)
			v++
		}
	})

	// core: Algorithm 1 on its own factory, as the shards build it.
	f2 := prim.NewFactory(2)
	mc, err := core.NewMultCounter(f2, 4)
	if err != nil {
		return err
	}
	mh := mc.Handle(f2.Proc(0))
	coreInc := ns("core.inc_ns", func(n int) {
		for range n {
			mh.Inc()
		}
	})
	ns("core.read_ns", func(n int) {
		var s uint64
		for range n {
			s += mh.Read()
		}
		sinkU += s
	})
	r.layerMetric("core.inc_ratio", "ratio", ratio(coreInc, regWrite))

	var closers []func()
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	counter := func(opts ...approxobj.Option) (*approxobj.Counter, error) {
		c, err := approxobj.NewCounter(append([]approxobj.Option{approxobj.WithAccuracy(approxobj.Multiplicative(4))}, opts...)...)
		if err == nil {
			closers = append(closers, c.Close)
		}
		return c, err
	}
	histogram := func(opts ...approxobj.Option) (*approxobj.Histogram, error) {
		h, err := approxobj.NewHistogram(append([]approxobj.Option{approxobj.WithAccuracy(approxobj.Multiplicative(2))}, opts...)...)
		if err == nil {
			closers = append(closers, h.Close)
		}
		return h, err
	}
	incs := func(h approxobj.CounterHandle) func(n int) {
		return func(n int) {
			for range n {
				h.Inc()
			}
		}
	}
	reads := func(h approxobj.CounterHandle) func(n int) {
		return func(n int) {
			var s uint64
			for range n {
				s += h.Read()
			}
			sinkU += s
		}
	}
	observes := func(h approxobj.HistogramHandle) func(n int) {
		return func(n int) {
			for i := range n {
				h.Observe(lat(i))
			}
		}
	}
	quantiles := func(h approxobj.HistogramHandle) func(n int) {
		return func(n int) {
			var s uint64
			for range n {
				s += h.Quantile(0.99)
			}
			sinkU += s
		}
	}
	// filled returns a handle of c after 100k increments, so reads scan a
	// realistic switch sequence.
	filled := func(c *approxobj.Counter) approxobj.CounterHandle {
		h := c.Handle(0)
		incs(h)(100_000)
		h.(approxobj.BatchedCounterHandle).Flush()
		return h
	}
	// prefilled returns a handle of h after one pass of the latency ring.
	prefilled := func(h *approxobj.Histogram) approxobj.HistogramHandle {
		hh := h.Handle(0)
		observes(hh)(ringLen * obsPerReq)
		hh.(approxobj.BatchedHistogramHandle).Flush()
		return hh
	}

	// shard.buffer: the public handle, unbuffered and batched.
	c1, err := counter(approxobj.WithShards(4))
	if err != nil {
		return err
	}
	c64, err := counter(approxobj.WithShards(4), approxobj.WithBatch(64))
	if err != nil {
		return err
	}
	h64, err := histogram(approxobj.WithShards(4), approxobj.WithBatch(64))
	if err != nil {
		return err
	}
	incB1 := ns("shard.buffer.inc_b1_ns", incs(c1.Handle(0)))
	incB64 := ns("shard.buffer.inc_b64_ns", incs(c64.Handle(0)))
	ns("shard.buffer.observe_b64_ns", observes(h64.Handle(0)))
	r.layerMetric("shard.buffer.inc_b1_ratio", "ratio", ratio(incB1, coreInc))

	// shard.combine: uncached reads fold one read per shard.
	c16, err := counter(approxobj.WithShards(16))
	if err != nil {
		return err
	}
	h4, err := histogram(approxobj.WithShards(4))
	if err != nil {
		return err
	}
	readS4 := ns("shard.combine.read_s4_ns", reads(filled(c1)))
	readS16 := ns("shard.combine.read_s16_ns", reads(filled(c16)))
	ns("shard.combine.quantile_s4_ns", quantiles(prefilled(h4)))
	r.layerMetric("shard.combine.s16_ratio", "ratio", ratio(readS16, readS4))

	// shard.readcache: the same 16-shard reads through the cache.
	cc, err := counter(approxobj.WithShards(16), approxobj.WithReadCache(time.Millisecond))
	if err != nil {
		return err
	}
	hc, err := histogram(approxobj.WithShards(16), approxobj.WithReadCache(time.Millisecond))
	if err != nil {
		return err
	}
	cached := ns("shard.readcache.read_ns", reads(filled(cc)))
	ns("shard.readcache.quantile_ns", quantiles(prefilled(hc)))
	r.layerMetric("shard.readcache.ratio", "ratio", ratio(cached, readS16))

	// shard.window: the epoch ring over the same shapes.
	window := approxobj.WithWindow(serviceWindow, serviceEpochs)
	cw64, err := counter(approxobj.WithShards(4), approxobj.WithBatch(64), window)
	if err != nil {
		return err
	}
	cw, err := counter(approxobj.WithShards(4), window)
	if err != nil {
		return err
	}
	winInc := ns("shard.window.inc_ns", incs(cw64.Handle(0)))
	winRead := ns("shard.window.read_ns", reads(filled(cw)))
	r.layerMetric("shard.window.inc_ratio", "ratio", ratio(winInc, incB64))
	r.layerMetric("shard.window.read_ratio", "ratio", ratio(winRead, readS4))

	// pool: leasing a handle, and using a held one.
	cp, err := counter(approxobj.WithShards(4), approxobj.WithBatch(64))
	if err != nil {
		return err
	}
	ns("pool.cycle_ns", func(n int) {
		for range n {
			_, release := cp.Acquire()
			release()
		}
	})
	held, release := cp.Acquire()
	heldInc := ns("pool.held_inc_ns", incs(held))
	release()
	ns("pool.do_inc_ns", func(n int) {
		for range n {
			cp.Do(incOne)
		}
	})
	r.layerMetric("pool.wrap_ratio", "ratio", ratio(heldInc, incB64))

	// telemetry: the unbuffered write paths with a domain attached, over
	// the same paths without.
	tel := approxobj.WithTelemetry(approxobj.NewTelemetry())
	for _, shards := range []int{1, 4} {
		s := approxobj.WithShards(shards)
		off, err := counter(s)
		if err != nil {
			return err
		}
		on, err := counter(s, tel)
		if err != nil {
			return err
		}
		hoff, err := histogram(s)
		if err != nil {
			return err
		}
		hon, err := histogram(s, tel)
		if err != nil {
			return err
		}
		suffix := "_s1"
		if shards == 4 {
			suffix = "_s4"
		}
		r.layerMetric("telemetry.inc_ratio"+suffix, "ratio", ratio(nsPerOp(row, incs(on.Handle(0))), nsPerOp(row, incs(off.Handle(0)))))
		r.layerMetric("telemetry.observe_ratio"+suffix, "ratio", ratio(nsPerOp(row, observes(hon.Handle(0))), nsPerOp(row, observes(hoff.Handle(0)))))
	}

	// registry and expose: the scrape workload's 256-object registry.
	s, err := buildScrape(genScrape(seed).(*scrapeInputs), nil)
	if err != nil {
		return err
	}
	closers = append(closers, s.reg.Close)
	objs := float64(len(s.objs))
	snap := nsPerOp(row, func(n int) {
		for range n {
			s.reg.Snapshot()
		}
	})
	var buf bytes.Buffer
	var werr error
	write := nsPerOp(row, func(n int) {
		for range n {
			buf.Reset()
			if err := expose.WriteRegistry(&buf, s.reg); err != nil {
				werr = err
			}
		}
	})
	if werr != nil {
		return werr
	}
	r.layerMetric("registry.snapshot_ns_per_object", "ns", snap/objs)
	r.layerMetric("expose.render_ns_per_object", "ns", max(0, write-snap)/objs)
	r.layerMetric("expose.ratio", "ratio", ratio(write-snap, snap))
	return nil
}
