package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"approxobj/internal/object"
	"approxobj/internal/prim"
)

func TestMultCounterConstructorValidation(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		k       uint64
		wantErr bool
	}{
		{"k too small for n", 16, 3, true},
		{"k exactly sqrt(n)", 16, 4, false},
		{"k above sqrt(n)", 16, 8, false},
		{"k below 2 rejected", 1, 1, true},
		{"single process", 1, 2, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := prim.NewFactory(c.n)
			_, err := NewMultCounter(f, c.k)
			if (err != nil) != c.wantErr {
				t.Fatalf("NewMultCounter(n=%d, k=%d) error = %v, wantErr %v", c.n, c.k, err, c.wantErr)
			}
		})
	}
}

func TestMultCounterUncheckedStillNeedsK2(t *testing.T) {
	f := prim.NewFactory(4)
	if _, err := NewMultCounter(f, 1, Unchecked()); err == nil {
		t.Fatal("k=1 accepted, want error")
	}
	if _, err := NewMultCounter(f, 2, Unchecked()); err != nil {
		t.Fatalf("k=2 unchecked rejected: %v", err)
	}
	// n=16 needs k>=4 normally, but Unchecked admits k=2.
	f16 := prim.NewFactory(16)
	if _, err := NewMultCounter(f16, 2, Unchecked()); err != nil {
		t.Fatalf("unchecked k=2 n=16 rejected: %v", err)
	}
}

func TestFirstThreshold(t *testing.T) {
	cases := []struct {
		n    int
		k    uint64
		want uint64
	}{
		{1, 2, 2},  // n <= k+1: paper's t1 = k
		{3, 2, 2},  // n = k+1: still k
		{4, 2, 1},  // n = k^2: floor(3/4)+1 = 1
		{8, 5, 4},  // the E9 counterexample: floor(24/8)+1 = 4
		{25, 5, 1}, // n = k^2
		{9, 3, 1},  // n = k^2
		{5, 3, 2},  // floor(8/5)+1 = 2
		// k >= n gives t1 = k, also where k² overflows 64 bits.
		{3, 1<<32 + 1, 1<<32 + 1},
		{64, 1<<32 + 7, 1<<32 + 7},
		{1, math.MaxUint64, math.MaxUint64},
		{3, math.MaxUint64, math.MaxUint64},
		{64, math.MaxUint64, math.MaxUint64},
	}
	for _, c := range cases {
		f := prim.NewFactory(c.n)
		mc, err := NewMultCounter(f, c.k)
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", c.n, c.k, err)
		}
		if got := mc.FirstThreshold(); got != c.want {
			t.Errorf("FirstThreshold(n=%d, k=%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

// TestVerbatimBoundaryViolation reproduces the accuracy gap this repo found
// in the paper's Claim III.6 (experiment E9): with the literal t1 = k, n = 8
// processes and k = 5 (k >= sqrt(n) holds), a sequential execution drives
// the true count to 1 + n(t1-1) = 33 while a read still returns
// ReturnValue(0,0) = k = 5, violating x >= v/k (33/5 > 5). The repaired
// default threshold keeps the same schedule inside the envelope.
func TestVerbatimBoundaryViolation(t *testing.T) {
	run := func(opts ...Option) (resp, truth uint64) {
		const n, k = 8, 5
		f := prim.NewFactory(n)
		c, err := NewMultCounter(f, k, opts...)
		if err != nil {
			t.Fatal(err)
		}
		handles := make([]*MultHandle, n)
		for i := range handles {
			handles[i] = c.Handle(f.Proc(i))
		}
		// Every process performs t1(verbatim)-1 = 4 increments: the first
		// process sets switch_0 on its first increment; all others lose
		// switch_0 and hold their counts locally.
		for i := 0; i < n; i++ {
			for j := 0; j < 4; j++ {
				handles[i].Inc()
				truth++
			}
		}
		reader := c.Handle(f.Proc(0))
		return reader.Read(), truth
	}

	acc := object.Bounds{Mult: 5}
	if resp, truth := run(Verbatim()); acc.Contains(truth, resp) {
		t.Errorf("verbatim: Read = %d for v = %d unexpectedly within envelope (paper gap not reproduced)", resp, truth)
	} else if resp != 5 || truth != 32 {
		t.Errorf("verbatim scenario drifted: resp = %d (want 5), v = %d (want 32)", resp, truth)
	}
	if resp, truth := run(); !acc.Contains(truth, resp) {
		t.Errorf("repaired: Read = %d for v = %d outside envelope", resp, truth)
	}
}

// TestMultCounterSequentialTrace checks the exact hand-computed responses of
// a single-process execution with k=2: after announcing, the counter's
// ReturnValue equals k times the true count, and between announcements the
// response stays within [v, k*v] of the true count v.
func TestMultCounterSequentialTrace(t *testing.T) {
	f := prim.NewFactory(1)
	p := f.Proc(0)
	c, err := NewMultCounter(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := c.Handle(p)

	if got := h.Read(); got != 0 {
		t.Fatalf("initial Read = %d, want 0", got)
	}

	// (increments so far, expected read response) — derived by executing
	// Algorithm 1 by hand: announcements happen at counts 1, 3, 5, 9, 13;
	// reads return k * (announced count).
	steps := []struct{ incs, want uint64 }{
		{1, 2}, {2, 2}, {3, 6}, {4, 6}, {5, 10},
		{6, 10}, {9, 18}, {13, 26},
	}
	done := uint64(0)
	for _, s := range steps {
		for done < s.incs {
			h.Inc()
			done++
		}
		if got := h.Read(); got != s.want {
			t.Fatalf("after %d incs: Read = %d, want %d", s.incs, got, s.want)
		}
	}
}

func TestMultCounterSequentialEnvelope(t *testing.T) {
	// Single process, several k values: every read must satisfy
	// v/k <= x <= v*k for the exact count v.
	for _, k := range []uint64{2, 3, 5, 10} {
		f := prim.NewFactory(1)
		p := f.Proc(0)
		c, err := NewMultCounter(f, k)
		if err != nil {
			t.Fatal(err)
		}
		h := c.Handle(p)
		acc := object.Bounds{Mult: k}
		for v := uint64(1); v <= 3000; v++ {
			h.Inc()
			x := h.Read()
			if !acc.Contains(v, x) {
				t.Fatalf("k=%d: after %d incs Read = %d, outside [v/k, v*k]", k, v, x)
			}
		}
	}
}

func TestMultCounterMultiProcessSequentialEnvelope(t *testing.T) {
	// Operations by different processes, executed one after another
	// (sequential specification must hold exactly within the envelope).
	const n = 9
	const k = 3
	f := prim.NewFactory(n)
	c, err := NewMultCounter(f, k)
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*MultHandle, n)
	for i := range handles {
		handles[i] = c.Handle(f.Proc(i))
	}
	acc := object.Bounds{Mult: k}
	rng := rand.New(rand.NewSource(1))
	total := uint64(0)
	for op := 0; op < 20000; op++ {
		h := handles[rng.Intn(n)]
		if rng.Intn(4) > 0 { // 75% increments
			h.Inc()
			total++
			continue
		}
		x := h.Read()
		if !acc.Contains(total, x) {
			t.Fatalf("op %d: Read = %d for true count %d (k=%d), outside envelope", op, x, total, k)
		}
	}
}

func TestMultCounterQuickEnvelope(t *testing.T) {
	check := func(seed int64, nRaw, kExtra uint8, opsRaw uint16) bool {
		n := int(nRaw)%8 + 1
		k := uint64(3) + uint64(kExtra)%5 // k in [3, 7], always >= sqrt(8)
		ops := int(opsRaw)%2000 + 10
		f := prim.NewFactory(n)
		c, err := NewMultCounter(f, k)
		if err != nil {
			return false
		}
		handles := make([]*MultHandle, n)
		for i := range handles {
			handles[i] = c.Handle(f.Proc(i))
		}
		acc := object.Bounds{Mult: k}
		rng := rand.New(rand.NewSource(seed))
		total := uint64(0)
		for op := 0; op < ops; op++ {
			h := handles[rng.Intn(n)]
			if rng.Intn(3) > 0 {
				h.Inc()
				total++
			} else if x := h.Read(); !acc.Contains(total, x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMultCounterReadMonotonePerProcess(t *testing.T) {
	// A process's successive reads never decrease (counters are monotone).
	f := prim.NewFactory(2)
	c, err := NewMultCounter(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	inc := c.Handle(f.Proc(0))
	read := c.Handle(f.Proc(1))
	prev := uint64(0)
	for i := 0; i < 5000; i++ {
		inc.Inc()
		if i%7 == 0 {
			x := read.Read()
			if x < prev {
				t.Fatalf("read %d after previous read %d: reads regressed", x, prev)
			}
			prev = x
		}
	}
}

func TestMultCounterAmortizedConstantSequential(t *testing.T) {
	// Theorem III.9 (sequential shadow): total steps / total ops stays
	// bounded by a small constant for k >= sqrt(n), even for executions
	// with millions of increments.
	const n = 4
	const k = 2 // k = sqrt(4)
	f := prim.NewFactory(n)
	c, err := NewMultCounter(f, k)
	if err != nil {
		t.Fatal(err)
	}
	procs := f.Procs()
	handles := make([]*MultHandle, n)
	for i := range handles {
		handles[i] = c.Handle(procs[i])
	}
	const opsPerProc = 200000
	ops := 0
	for i := 0; i < opsPerProc; i++ {
		for pid := 0; pid < n; pid++ {
			handles[pid].Inc()
			ops++
			if i%100 == 0 {
				handles[pid].Read()
				ops++
			}
		}
	}
	var steps uint64
	for _, p := range procs {
		steps += p.Steps()
	}
	amortized := float64(steps) / float64(ops)
	if amortized > 3 {
		t.Fatalf("amortized steps/op = %.3f, want <= 3 (constant)", amortized)
	}
}

func TestReturnValueFormula(t *testing.T) {
	f := prim.NewFactory(1)
	c, err := NewMultCounter(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	// ReturnValue(p, q) = k * (1 + sum_{l=1..q} k^(l+1) + p*k^(q+1)).
	cases := []struct {
		p, q uint64
		want uint64
	}{
		{0, 0, 2},  // k*(1)
		{1, 0, 6},  // k*(1+2)
		{0, 1, 10}, // k*(1+4)
		{1, 1, 18}, // k*(1+4+4)
		{0, 2, 26}, // k*(1+4+8)
		{1, 2, 42}, // k*(1+4+8+8)
	}
	for _, cse := range cases {
		if got := c.returnValue(cse.p, cse.q); got != cse.want {
			t.Errorf("returnValue(%d, %d) = %d, want %d", cse.p, cse.q, got, cse.want)
		}
	}
}

// refReturnValue is ReturnValue(p, q) computed as the paper writes it
// (lines 30-34), with one saturating power per interval: the O(q^2)
// reference that returnValue's running threshold must match bit for bit.
func refReturnValue(c *MultCounter, p, q uint64) uint64 {
	ret := addSat(1, mulSat(p, c.threshold(q+1)))
	for l := uint64(1); l <= q; l++ {
		ret = addSat(ret, mulSat(c.k, c.threshold(l)))
	}
	return mulSat(c.k, ret)
}

// TestReturnValueMatchesReference pins returnValue against the per-interval
// power formula across small and huge k, including every regime where the
// thresholds or the sum saturate, for both first-interval thresholds.
// n = 64 (below k >= sqrt(n) for small k, hence Unchecked) repairs t1
// below k for the k below 64, which n <= 3 never does (t1 = k whenever
// k >= n).
func TestReturnValueMatchesReference(t *testing.T) {
	const max = ^uint64(0)
	for _, k := range []uint64{2, 3, 4, 10, 1 << 20, 1<<32 + 7, max} {
		for _, n := range []int{1, 2, 3, 64} {
			for _, opts := range [][]Option{{Unchecked()}, {Unchecked(), Verbatim()}} {
				c, err := NewMultCounter(prim.NewFactory(n), k, opts...)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range []uint64{0, 1, k / 2, k - 1} {
					for q := uint64(0); q < 80; q++ {
						if got, want := c.returnValue(p, q), refReturnValue(c, p, q); got != want {
							t.Fatalf("k=%d n=%d t1=%d: returnValue(%d, %d) = %d, want %d", k, n, c.t1, p, q, got, want)
						}
					}
				}
			}
		}
	}
}

func TestReturnValueMonotoneQuick(t *testing.T) {
	f := prim.NewFactory(1)
	c, err := NewMultCounter(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	// ReturnValue is strictly monotone in scan order: advancing (p, q) to
	// the next scanned switch increases the response.
	check := func(qRaw uint8) bool {
		q := uint64(qRaw % 16)
		// Scan order within interval q: p=0 then p=1; then interval q+1.
		return c.returnValue(0, q) < c.returnValue(1, q) &&
			c.returnValue(1, q) < c.returnValue(0, q+1)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestThresholds(t *testing.T) {
	// n=1 keeps the paper's thresholds: t_0 = 1, t_j = k^j.
	f := prim.NewFactory(1)
	c, err := NewMultCounter(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range []uint64{1, 3, 9, 27, 81} {
		if got := c.threshold(uint64(j)); got != want {
			t.Errorf("threshold(%d) = %d, want %d", j, got, want)
		}
	}
	// n=9, k=3 repairs t1 to 1: thresholds 1, 1, 3, 9.
	f9 := prim.NewFactory(9)
	c9, err := NewMultCounter(f9, 3)
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range []uint64{1, 1, 3, 9} {
		if got := c9.threshold(uint64(j)); got != want {
			t.Errorf("n=9: threshold(%d) = %d, want %d", j, got, want)
		}
	}
}

func TestSaturatingArithmetic(t *testing.T) {
	const max = ^uint64(0)
	if got := mulSat(max, 2); got != max {
		t.Fatalf("mulSat overflow = %d, want saturation", got)
	}
	if got := mulSat(3, 4); got != 12 {
		t.Fatalf("mulSat(3,4) = %d", got)
	}
	if got := mulSat(0, max); got != 0 {
		t.Fatalf("mulSat(0,max) = %d", got)
	}
	if got := addSat(max, 1); got != max {
		t.Fatalf("addSat overflow = %d, want saturation", got)
	}
	if got := addSat(2, 3); got != 5 {
		t.Fatalf("addSat(2,3) = %d", got)
	}
	if got := powSat(2, 10); got != 1024 {
		t.Fatalf("powSat(2,10) = %d", got)
	}
	if got := powSat(2, 100); got != max {
		t.Fatalf("powSat(2,100) = %d, want saturation", got)
	}
	if got := powSat(7, 0); got != 1 {
		t.Fatalf("powSat(7,0) = %d, want 1", got)
	}
}

func TestMultCounterHandleSteps(t *testing.T) {
	f := prim.NewFactory(1)
	p := f.Proc(0)
	c, err := NewMultCounter(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := c.Handle(p)
	h.Inc() // winning TAS on switch_0 only (the j=0 branch skips H)
	if got := h.Steps(); got != 1 {
		t.Fatalf("Steps after first announcing Inc = %d, want 1", got)
	}
}

// residentSwitches is what Resident should count for c's switches: the
// size of every TASSeq level holding a set switch (a test&set builds
// its level and sets its bit; nothing else builds one), scanning the
// first 2^16 switches.
func residentSwitches(c *MultCounter) uint64 {
	var n uint64
	for l := uint64(0); l < 16; l++ {
		for i := uint64(1)<<l - 1; i < uint64(1)<<(l+1)-1; i++ {
			if c.SwitchState(i) == 1 {
				n += 1 << l
				break
			}
		}
	}
	return n
}

// TestMultCounterLazyState checks that Algorithm 1's shared state is
// built by writes: reads of a fresh counter build no switch level and
// no helping register, and the helping row (n registers) is built by
// the first announcement that writes it.
func TestMultCounterLazyState(t *testing.T) {
	const n, k = 4, 2
	f := prim.NewFactory(n)
	c, err := NewMultCounter(f, k)
	if err != nil {
		t.Fatal(err)
	}
	hs := make([]*MultHandle, n)
	for i := range hs {
		hs[i] = c.Handle(f.Proc(i))
		if v := hs[i].Read(); v != 0 {
			t.Fatalf("fresh read %d, want 0", v)
		}
	}
	if got := f.Resident(); got != 0 {
		t.Fatalf("reads of a fresh counter: Resident %d, want 0", got)
	}
	hs[0].Inc() // wins switch_0: no helping write
	if got, want := f.Resident(), residentSwitches(c); got != want || want != 1 {
		t.Fatalf("after switch_0: Resident %d, want %d (switch level 0 only)", got, want)
	}
	for hs[0].sn == 0 {
		hs[0].Inc()
	}
	hs[1].Read()
	if got, want := f.Resident(), residentSwitches(c)+n; got != want {
		t.Fatalf("after the first announcement: Resident %d, want %d (switch levels and the helping row)", got, want)
	}
}

// TestMultCounterFirstWritesRace has every process make its first
// announcements on one fresh counter at once, racing to build the switch
// table, its levels and the helping row. Every announcement must land:
// each process's helping register holds its last sequence number, and
// Resident counts the helping row once and each built switch level
// once. Run with -race, it also checks the publishing CASes against
// concurrent loads.
func TestMultCounterFirstWritesRace(t *testing.T) {
	const n, k, incs, trials = 8, 3, 40, 25
	for trial := 0; trial < trials; trial++ {
		f := prim.NewFactory(n)
		c, err := NewMultCounter(f, k)
		if err != nil {
			t.Fatal(err)
		}
		hs := make([]*MultHandle, n)
		for i := range hs {
			hs[i] = c.Handle(f.Proc(i))
		}
		var ready, done sync.WaitGroup
		start := make(chan struct{})
		ready.Add(n)
		done.Add(n)
		for i := 0; i < n; i++ {
			go func() {
				defer done.Done()
				ready.Done()
				<-start
				for j := 0; j < incs; j++ {
					hs[i].Inc()
				}
			}()
		}
		ready.Wait()
		close(start)
		done.Wait()
		announced := false
		for i, h := range hs {
			if _, sn := c.h.Read(f.Proc(0), i); sn != h.sn {
				t.Fatalf("trial %d: H[%d] holds sequence number %d, want %d (an announcement went to a losing row)", trial, i, sn, h.sn)
			}
			announced = announced || h.sn > 0
		}
		if !announced {
			t.Fatalf("trial %d: no process announced on a switch of interval 1 or later", trial)
		}
		if got, want := f.Resident(), residentSwitches(c)+n; got != want {
			t.Fatalf("trial %d: Resident %d, want %d (a losing level or row was counted)", trial, got, want)
		}
	}
}
