package approxobj

import (
	"sync"
	"testing"
)

func TestCounterBasic(t *testing.T) {
	c, err := NewCounter(WithProcs(4), WithAccuracy(Multiplicative(2)))
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 4 || c.K() != 2 {
		t.Fatalf("N=%d K=%d, want 4, 2", c.N(), c.K())
	}
	h := c.Handle(0)
	if got := h.Read(); got != 0 {
		t.Fatalf("initial Read = %d, want 0", got)
	}
	for i := 0; i < 100; i++ {
		h.Inc()
	}
	x := h.Read()
	if x < 50 || x > 200 {
		t.Fatalf("Read = %d after 100 incs, want within [50, 200] (k=2)", x)
	}
	if h.Steps() == 0 {
		t.Fatal("Steps not counted")
	}
}

func TestCounterRejectsBadParams(t *testing.T) {
	if _, err := NewCounter(WithProcs(100), WithAccuracy(Multiplicative(2))); err == nil {
		t.Fatal("k=2 for n=100 accepted (needs k >= 10)")
	}
	if _, err := NewCounter(WithProcs(0), WithAccuracy(Multiplicative(2))); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := NewCounter(WithAccuracy(Multiplicative(1))); err == nil {
		t.Fatal("k=1 accepted")
	}
}

func TestCounterConcurrent(t *testing.T) {
	const n = 8
	const perProc = 10000
	c, err := NewCounter(WithProcs(n), WithAccuracy(Multiplicative(3)))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := c.Handle(i)
			for j := 0; j < perProc; j++ {
				h.Inc()
				if j%1000 == 0 {
					h.Read()
				}
			}
		}(i)
	}
	wg.Wait()
	x := c.Handle(0).Read()
	const v = n * perProc
	if x < v/3 || x > v*3 {
		t.Fatalf("final Read = %d, want within [%d, %d]", x, v/3, v*3)
	}
}

func TestExactCounter(t *testing.T) {
	c, err := NewCounter(WithProcs(4))
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 4 {
		t.Fatalf("N = %d, want 4", c.N())
	}
	h0, h1 := c.Handle(0), c.Handle(1)
	h0.Inc()
	h0.Inc()
	h1.Inc()
	if got := h1.Read(); got != 3 {
		t.Fatalf("Read = %d, want 3", got)
	}
	if h1.Steps() == 0 {
		t.Fatal("Steps not counted")
	}
	if _, err := NewCounter(WithProcs(0)); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestExactCounterConcurrent(t *testing.T) {
	const n = 8
	const perProc = 20000
	c, err := NewCounter(WithProcs(n))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := c.Handle(i)
			for j := 0; j < perProc; j++ {
				h.Inc()
			}
		}(i)
	}
	wg.Wait()
	if got := c.Handle(0).Read(); got != n*perProc {
		t.Fatalf("exact counter lost updates: Read = %d, want %d", got, n*perProc)
	}
}

func TestBoundedMaxRegister(t *testing.T) {
	r, err := NewMaxRegister(WithProcs(2), WithAccuracy(Multiplicative(2)), WithBound(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if r.Bound() != 1<<20 || r.K() != 2 {
		t.Fatalf("Bound=%d K=%d", r.Bound(), r.K())
	}
	h := r.Handle(0)
	if got := h.Read(); got != 0 {
		t.Fatalf("initial Read = %d", got)
	}
	h.Write(1000)
	x := r.Handle(1).Read()
	if x < 1000 || x > 2000 {
		t.Fatalf("Read = %d, want in [1000, 2000]", x)
	}
	if _, err := NewMaxRegister(WithProcs(1), WithAccuracy(Multiplicative(2)), WithBound(1)); err == nil {
		t.Fatal("m=1 accepted")
	}
	if _, err := NewMaxRegister(WithProcs(1), WithAccuracy(Multiplicative(1)), WithBound(8)); err == nil {
		t.Fatal("k=1 accepted")
	}
}

func TestExactBoundedMaxRegister(t *testing.T) {
	r, err := NewMaxRegister(WithProcs(2), WithBound(1024))
	if err != nil {
		t.Fatal(err)
	}
	h := r.Handle(0)
	h.Write(77)
	h.Write(33)
	if got := r.Handle(1).Read(); got != 77 {
		t.Fatalf("Read = %d, want 77", got)
	}
}

func TestUnboundedMaxRegisters(t *testing.T) {
	approx, err := NewMaxRegister(WithProcs(2), WithAccuracy(Multiplicative(4)))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewMaxRegister(WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	ha, he := approx.Handle(0), exact.Handle(0)
	const v = uint64(123456789)
	ha.Write(v)
	he.Write(v)
	if got := exact.Handle(1).Read(); got != v {
		t.Fatalf("exact Read = %d, want %d", got, v)
	}
	x := approx.Handle(1).Read()
	if x < v/4 || x > v*4 {
		t.Fatalf("approx Read = %d, want within [v/4, 4v] of %d", x, v)
	}
}

func TestMaxRegisterConcurrent(t *testing.T) {
	const n = 8
	r, err := NewMaxRegister(WithProcs(n), WithAccuracy(Multiplicative(2)))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := r.Handle(i)
			for j := 1; j <= 5000; j++ {
				h.Write(uint64(j * (i + 1)))
				if j%500 == 0 {
					h.Read()
				}
			}
		}(i)
	}
	wg.Wait()
	const max = 5000 * n
	x := r.Handle(0).Read()
	if x < max/2 || x > max*2 {
		t.Fatalf("final Read = %d, want within [%d, %d]", x, max/2, max*2)
	}
}

func TestMaxRegisterStepsCounted(t *testing.T) {
	r, err := NewMaxRegister(WithProcs(1), WithAccuracy(Multiplicative(2)), WithBound(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	h := r.Handle(0)
	h.Write(5)
	h.Read()
	if h.Steps() == 0 {
		t.Fatal("Steps not counted")
	}
	// The headline claim: ops on a 2^30-bounded 2-accurate register take
	// at most ceil(log2(log2(2^30)+2)) = 5 steps.
	steps := h.Steps()
	if steps > 10 {
		t.Fatalf("2 ops took %d steps, want <= 10 (double-log complexity)", steps)
	}
}

// TestHistogramSaturatedQuantile pins queries over a saturated count:
// 2^63 observations of 1 and 2^63 of 1000 saturate Count at MaxUint64,
// and Quantile(1) must still find the maximum's bucket floor, 512 for
// k = 2, on a handle and on a frozen snapshot.
func TestHistogramSaturatedQuantile(t *testing.T) {
	h, err := NewHistogram(WithAccuracy(Multiplicative(2)))
	if err != nil {
		t.Fatal(err)
	}
	hh := h.Handle(0)
	hh.ObserveN(1, 1<<63)
	hh.ObserveN(1000, 1<<63)
	if got := hh.Count(); got != ^uint64(0) {
		t.Fatalf("Count = %d, want saturated MaxUint64", got)
	}
	if got := hh.Quantile(1); got != 512 {
		t.Errorf("handle Quantile(1) = %d, want 512", got)
	}
	snap, err := h.Snapshot(false)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Quantile(1); got != 512 {
		t.Errorf("snapshot Quantile(1) = %d, want 512", got)
	}
}

// TestHistogramSnapshotZeroValue pins the documented zero value: an
// empty snapshot whose five queries all return zero.
func TestHistogramSnapshotZeroValue(t *testing.T) {
	var s HistogramSnapshot
	if s.Count() != 0 || s.Sum() != 0 || s.Rank(5) != 0 || s.Quantile(0.5) != 0 || s.CDF(5) != 0 {
		t.Errorf("zero HistogramSnapshot: Count %d, Sum %d, Rank(5) %d, Quantile(0.5) %d, CDF(5) %v; want all 0",
			s.Count(), s.Sum(), s.Rank(5), s.Quantile(0.5), s.CDF(5))
	}
}

func TestAdditiveCounter(t *testing.T) {
	c, err := NewCounter(WithProcs(4), WithAccuracy(Additive(40)))
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 4 || c.K() != 40 {
		t.Fatalf("N=%d K=%d, want 4, 40", c.N(), c.K())
	}
	h := c.Handle(0)
	for i := 0; i < 1000; i++ {
		h.Inc()
	}
	x := h.Read()
	if x < 960 || x > 1040 {
		t.Fatalf("Read = %d, want within +-40 of 1000", x)
	}
	if h.Steps() == 0 {
		t.Fatal("Steps not counted")
	}
	if _, err := NewCounter(WithProcs(0), WithAccuracy(Additive(4))); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestAdditiveCounterConcurrent(t *testing.T) {
	const n = 8
	const k = 80
	const perProc = 10000
	c, err := NewCounter(WithProcs(n), WithAccuracy(Additive(k)))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := c.Handle(i)
			for j := 0; j < perProc; j++ {
				h.Inc()
			}
		}(i)
	}
	wg.Wait()
	x := c.Handle(0).Read()
	const v = n * perProc
	if x < v-k || x > v+k {
		t.Fatalf("Read = %d, want within +-%d of %d", x, k, v)
	}
}

// TestSpecBounds asserts that representative spec combinations report
// the correct universal envelopes: additive counters carry their slack
// in the Add term, and exact objects report the zero envelope.
func TestSpecBounds(t *testing.T) {
	add, err := NewCounter(WithProcs(4), WithAccuracy(Additive(40)))
	if err != nil {
		t.Fatal(err)
	}
	if b := add.Bounds(); b.Mult != 1 || b.Add != 40 || b.Buffer != 0 {
		t.Errorf("Additive(40) counter Bounds() = %+v, want {Mult:1 Add:40 Buffer:0}", b)
	}
	exact, err := NewCounter(WithProcs(4))
	if err != nil {
		t.Fatal(err)
	}
	if b := exact.Bounds(); b != ExactBounds() || !b.IsExact() {
		t.Errorf("exact counter Bounds() = %+v, want the zero envelope %+v", b, ExactBounds())
	}
	mult, err := NewCounter(WithProcs(4), WithAccuracy(Multiplicative(2)))
	if err != nil {
		t.Fatal(err)
	}
	if b := mult.Bounds(); b.Mult != 2 || b.Add != 0 || b.Buffer != 0 {
		t.Errorf("Multiplicative(2) counter Bounds() = %+v, want {Mult:2 Add:0 Buffer:0}", b)
	}
	sharded, err := NewCounter(WithProcs(8), WithAccuracy(Multiplicative(4)), WithShards(4), WithBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	if b := sharded.Bounds(); b.Mult != 4 || b.Add != 0 || b.Buffer != 7*8 {
		t.Errorf("sharded counter Bounds() = %+v, want {Mult:4 Add:0 Buffer:56}", b)
	}
	bmr, err := NewMaxRegister(WithProcs(2), WithAccuracy(Multiplicative(2)), WithBound(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if b := bmr.Bounds(); b.Mult != 2 || b.Add != 0 || b.Buffer != 0 {
		t.Errorf("bounded max-register Bounds() = %+v, want {Mult:2 Add:0 Buffer:0}", b)
	}
	emr, err := NewMaxRegister(WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	if b := emr.Bounds(); !b.IsExact() {
		t.Errorf("exact max-register Bounds() = %+v, want the zero envelope", b)
	}
}

// TestSpecRoundTrip spot-checks that built objects report the specs
// their options imply.
func TestSpecRoundTrip(t *testing.T) {
	c, err := NewCounter(WithProcs(8), WithAccuracy(Multiplicative(4)), WithShards(2), WithBatch(16))
	if err != nil {
		t.Fatal(err)
	}
	s := c.Spec()
	if s.Kind() != KindCounter || s.Procs() != 8 || s.Accuracy() != Multiplicative(4) ||
		s.Shards() != 2 || s.Batch() != 16 {
		t.Errorf("sharded counter spec = %v, want counter{procs: 8, multiplicative(4), shards: 2, batch: 16}", s)
	}
	r, err := NewMaxRegister(WithProcs(2), WithBound(1024))
	if err != nil {
		t.Fatal(err)
	}
	rs := r.Spec()
	if rs.Kind() != KindMaxRegister || rs.Bound() != 1024 || !rs.Accuracy().IsExact() {
		t.Errorf("bounded exact max-register spec = %v, want max register{procs: 2, exact, bound: 1024}", rs)
	}
}
