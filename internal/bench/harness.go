package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"approxobj"
)

// race is the harness's one goroutine launcher. It calls work(i) for
// every goroutine i in turn — the goroutine's untimed setup, which
// returns its timed body — then releases all gs bodies at once and
// returns the wall time until the last one finishes.
func race(gs int, work func(i int) func()) time.Duration {
	var wg sync.WaitGroup
	startLine := make(chan struct{})
	wg.Add(gs)
	for i := 0; i < gs; i++ {
		body := work(i)
		go func() {
			defer wg.Done()
			<-startLine
			body()
		}()
	}
	start := time.Now()
	close(startLine)
	wg.Wait()
	return time.Since(start)
}

// allocsPerRead returns the heap allocations per call over n calls of
// read, measured as a runtime.MemStats.Mallocs delta and rounded to
// hundredths: Mallocs is process-global, so an unrelated stray
// allocation (a GC assist, a background tick) must not wobble the
// machine-independent gate.
func allocsPerRead(n int, read func() uint64, sink *uint64) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		*sink += read()
	}
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs-m0.Mallocs) / float64(n)
	return float64(int64(allocs*100+0.5)) / 100
}

// settledWithin checks a quiescent read x against b's flushed (Buffer =
// 0) envelope of the true value n: once every handle has flushed, no
// increment is parked, so only the accuracy terms remain.
func settledWithin(b approxobj.Bounds, n, x uint64) error {
	b.Buffer = 0
	if !b.Contains(n, x) {
		return fmt.Errorf("quiescent read %d outside flushed envelope %+v of true value %d", x, b, n)
	}
	return nil
}

// onOff labels a two-valued cell coordinate (cached, telemetry) the way
// the records name it.
func onOff(on bool) string {
	if on {
		return "on"
	}
	return "off"
}

// handles returns handles 0..n-1 of one object.
func handles[H any](n int, handle func(int) H) []H {
	hs := make([]H, n)
	for i := range hs {
		hs[i] = handle(i)
	}
	return hs
}

// kindRow is one row of the harness's kind table: how the cross-kind
// experiments (E17, E18, E20r, E21) build, write, read and check one
// object kind through the public API, and which of the kind's own
// experiments measure it. A new kind adds one row;
// TestKindTableCoversKinds fails while a kind in approxobj.Kinds has
// none, or while its row names a scenario no experiment in All
// declares.
type kindRow struct {
	name string // the records' kind param
	kind approxobj.Kind
	base []approxobj.Option // the base spec every cell extends
	// build makes the object from opts, or registers it in reg under
	// name when reg is non-nil.
	build func(reg *approxobj.Registry, name string, opts []approxobj.Option) (*kindObj, error)
	// sweep is the kind's shards x batch scaling sweep.
	sweep func() sweep
	// frontier is the deterministic-vs-randomized frontier scenario,
	// which a kind with a randomized accuracy row must name.
	frontier string
}

// open builds the row's object from its base spec followed by extra;
// given a registry, the object is registered there under the row name.
func (r kindRow) open(reg *approxobj.Registry, extra ...approxobj.Option) (*kindObj, error) {
	return r.build(reg, r.name, append(r.base[:len(r.base):len(r.base)], extra...))
}

// kindObj is one object built from a kind row: handle 0 writes, handle
// 1 reads.
type kindObj struct {
	obj interface {
		Bounds() approxobj.Bounds
		Close()
	}
	steps   func() uint64        // the writer handle's Steps
	put     func(v uint64)       // Inc, Write(v), Update(v) or Observe(v mod 2^16)
	read    func() uint64        // Read, ScanInto's component 0, or the p99 Quantile
	settled func(n uint64) error // the quiescent check after put(1..n)
}

// fill writes put(1), ..., put(n).
func (o *kindObj) fill(n int) {
	for v := 1; v <= n; v++ {
		o.put(uint64(v))
	}
}

// histBound is the value domain [0, 2^16) of every histogram the
// harness builds.
const histBound = uint64(1) << 16

// kindRows is the kind table, in approxobj.Kinds order.
var kindRows = []kindRow{
	{name: "counter", kind: approxobj.KindCounter,
		base: []approxobj.Option{approxobj.WithProcs(2), approxobj.WithAccuracy(approxobj.Multiplicative(2))},
		build: func(reg *approxobj.Registry, name string, opts []approxobj.Option) (*kindObj, error) {
			c, err := newObj(reg, name, opts, approxobj.NewCounter, (*approxobj.Registry).Counter)
			if err != nil {
				return nil, err
			}
			w, r := c.Handle(0), c.Handle(1)
			return &kindObj{obj: c, steps: w.Steps, put: func(uint64) { w.Inc() }, read: r.Read,
				settled: func(n uint64) error { return settledWithin(c.Bounds(), n, r.Read()) }}, nil
		},
		sweep: e12Sweep, frontier: "E19"},
	{name: "max-register", kind: approxobj.KindMaxRegister,
		base: []approxobj.Option{approxobj.WithProcs(2), approxobj.WithBound(1 << 30)},
		build: func(reg *approxobj.Registry, name string, opts []approxobj.Option) (*kindObj, error) {
			m, err := newObj(reg, name, opts, approxobj.NewMaxRegister, (*approxobj.Registry).MaxRegister)
			if err != nil {
				return nil, err
			}
			w, r := m.Handle(0), m.Handle(1)
			return &kindObj{obj: m, steps: w.Steps, put: w.Write, read: r.Read,
				settled: func(n uint64) error { return settledWithin(m.Bounds(), n, r.Read()) }}, nil
		},
		sweep: e14Sweep},
	{name: "snapshot", kind: approxobj.KindSnapshot,
		base: []approxobj.Option{approxobj.WithProcs(2)},
		build: func(reg *approxobj.Registry, name string, opts []approxobj.Option) (*kindObj, error) {
			sn, err := newObj(reg, name, opts, approxobj.NewSnapshot, (*approxobj.Registry).SnapshotObject)
			if err != nil {
				return nil, err
			}
			w, r := sn.Handle(0), sn.Handle(1)
			var buf []uint64
			read := func() uint64 {
				buf = r.ScanInto(buf)
				return buf[0]
			}
			return &kindObj{obj: sn, steps: w.Steps, put: w.Update, read: read,
				settled: func(n uint64) error { return settledWithin(sn.Bounds(), n, read()) }}, nil
		},
		sweep: e15Sweep},
	{name: "histogram", kind: approxobj.KindHistogram,
		base: []approxobj.Option{approxobj.WithProcs(2), approxobj.WithAccuracy(approxobj.Multiplicative(2)), approxobj.WithBound(histBound)},
		build: func(reg *approxobj.Registry, name string, opts []approxobj.Option) (*kindObj, error) {
			hg, err := newObj(reg, name, opts, approxobj.NewHistogram, (*approxobj.Registry).HistogramObject)
			if err != nil {
				return nil, err
			}
			w, r := hg.Handle(0), hg.Handle(1)
			// A flushed histogram counts every observation exactly.
			return &kindObj{obj: hg, steps: w.Steps, put: func(v uint64) { w.Observe(v % histBound) },
				read:    func() uint64 { return r.Quantile(0.99) },
				settled: func(n uint64) error { return settledWithin(approxobj.ExactBounds(), n, r.Count()) }}, nil
		},
		sweep: e16Sweep},
}

// newObj builds an object from opts, or registers it in reg under name
// when reg is non-nil.
func newObj[O any](reg *approxobj.Registry, name string, opts []approxobj.Option,
	build func(...approxobj.Option) (O, error),
	register func(*approxobj.Registry, string, ...approxobj.Option) (O, error)) (O, error) {
	if reg == nil {
		return build(opts...)
	}
	return register(reg, name, opts...)
}
