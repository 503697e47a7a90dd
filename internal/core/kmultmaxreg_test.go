package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"approxobj/internal/object"
	"approxobj/internal/prim"
)

func TestKMultMaxRegConstructorValidation(t *testing.T) {
	f := prim.NewFactory(1)
	if _, err := NewKMultMaxReg(f, 8, 1); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := NewKMultMaxReg(f, 1, 2); err == nil {
		t.Fatal("m=1 accepted")
	}
	if _, err := NewKMultMaxReg(f, 2, 2); err != nil {
		t.Fatalf("smallest valid register rejected: %v", err)
	}
}

// TestKMultMaxRegHandComputed pins Algorithm 2's exact responses: a write
// of v records p = floor(log_k v) + 1 and reads return k^p.
func TestKMultMaxRegHandComputed(t *testing.T) {
	f := prim.NewFactory(1)
	p := f.Proc(0)
	r, err := NewKMultMaxReg(f, 1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Read(p); got != 0 {
		t.Fatalf("initial Read = %d, want 0", got)
	}
	steps := []struct{ write, want uint64 }{
		{1, 2}, // floor(log2 1)+1 = 1 -> 2^1
		{2, 4}, // floor(log2 2)+1 = 2 -> 2^2
		{3, 4}, // same MSB as 2
		{5, 8}, // floor(log2 5)+1 = 3
		{4, 8}, // smaller MSB: subsumed
		{1000, 1024},
		{7, 1024}, // far below the maximum
		{65535, 1 << 16},
	}
	for _, s := range steps {
		r.Write(p, s.write)
		if got := r.Read(p); got != s.want {
			t.Fatalf("after Write(%d): Read = %d, want %d", s.write, got, s.want)
		}
	}
}

func TestKMultMaxRegWriteZeroNoop(t *testing.T) {
	f := prim.NewFactory(1)
	p := f.Proc(0)
	r, err := NewKMultMaxReg(f, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	before := p.Steps()
	r.Write(p, 0)
	if p.Steps() != before {
		t.Fatal("Write(0) took steps")
	}
	if got := r.Read(p); got != 0 {
		t.Fatalf("Read after Write(0) = %d, want 0", got)
	}
}

func TestKMultMaxRegWritePanicsOutOfRange(t *testing.T) {
	f := prim.NewFactory(1)
	p := f.Proc(0)
	r, err := NewKMultMaxReg(f, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Write(100) on 100-bounded register did not panic")
		}
	}()
	r.Write(p, 100)
}

// TestKMultMaxRegEnvelopeQuick verifies the sequential specification: for
// any write sequence, a read returns x with v <= x <= v*k for the true
// maximum v (the algorithm's actual guarantee is the tight upper half of
// the k-envelope).
func TestKMultMaxRegEnvelopeQuick(t *testing.T) {
	check := func(seed int64, kRaw uint8) bool {
		k := uint64(kRaw)%6 + 2
		const m = uint64(1) << 24
		f := prim.NewFactory(1)
		p := f.Proc(0)
		r, err := NewKMultMaxReg(f, m, k)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		max := uint64(0)
		for i := 0; i < 60; i++ {
			v := uint64(rng.Int63n(int64(m-1))) + 1
			r.Write(p, v)
			if v > max {
				max = v
			}
			x := r.Read(p)
			if x < max || (max <= ^uint64(0)/k && x > max*k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestKMultMaxRegStepComplexity pins Theorem IV.2's bound: every operation
// costs at most ceil(log2(floor(log_k(m-1)) + 2)) steps.
func TestKMultMaxRegStepComplexity(t *testing.T) {
	for _, c := range []struct {
		m, k  uint64
		depth int
	}{
		{1 << 8, 2, 4},   // log2(9) -> 4
		{1 << 16, 2, 5},  // log2(17) -> 5
		{1 << 60, 2, 6},  // log2(61) -> 6
		{1 << 60, 4, 5},  // log2(31) -> 5
		{1 << 60, 16, 4}, // log2(16) -> 4
	} {
		f := prim.NewFactory(1)
		p := f.Proc(0)
		r, err := NewKMultMaxReg(f, c.m, c.k)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.InnerDepth(); got != c.depth {
			t.Errorf("InnerDepth(m=%d, k=%d) = %d, want %d", c.m, c.k, got, c.depth)
		}
		p.ResetSteps()
		r.Write(p, c.m-1)
		if got := p.Steps(); got > uint64(c.depth) {
			t.Errorf("m=%d k=%d: deepest Write took %d steps, bound %d", c.m, c.k, got, c.depth)
		}
		p.ResetSteps()
		r.Read(p)
		if got := p.Steps(); got > uint64(c.depth) {
			t.Errorf("m=%d k=%d: Read took %d steps, bound %d", c.m, c.k, got, c.depth)
		}
	}
}

// TestKMultUnboundedEnvelope drives the plug-in construction across epoch
// boundaries and checks the k-envelope against a sequential oracle.
func TestKMultUnboundedEnvelope(t *testing.T) {
	for _, k := range []uint64{2, 8} {
		f := prim.NewFactory(1)
		p := f.Proc(0)
		u, err := NewKMultUnboundedMaxReg(f, k)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(k)))
		max := uint64(0)
		for i := 0; i < 500; i++ {
			e := uint(rng.Intn(50))
			v := uint64(1)<<e + uint64(rng.Int63n(1<<20))
			u.Write(p, v)
			if v > max {
				max = v
			}
			x := u.Read(p)
			if mulFitsU(x, k) && x*k < max {
				t.Fatalf("k=%d: Read = %d < max/k for max %d", k, x, max)
			}
			if mulFitsU(max, k) && x > max*k {
				t.Fatalf("k=%d: Read = %d > max*k for max %d", k, x, max)
			}
		}
	}
}

func mulFitsU(a, b uint64) bool {
	if a == 0 || b == 0 {
		return true
	}
	return a <= ^uint64(0)/b
}

// TestKMultMaxRegAccuracyInterface exercises the object-layer adapter.
func TestKMultMaxRegAccuracyInterface(t *testing.T) {
	f := prim.NewFactory(2)
	r, err := NewKMultMaxReg(f, 1<<16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bound() != 1<<16 || r.K() != 4 {
		t.Fatalf("Bound=%d K=%d", r.Bound(), r.K())
	}
	w := r.MaxRegHandle(f.Proc(0))
	rd := r.MaxRegHandle(f.Proc(1))
	w.Write(300)
	x := rd.Read()
	acc := object.Bounds{Mult: 4}
	if !acc.Contains(300, x) {
		t.Fatalf("cross-handle Read = %d outside envelope of 300", x)
	}
}
