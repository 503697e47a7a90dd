package histogram

import (
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"approxobj/internal/planetest"
	"approxobj/internal/prim"
	"approxobj/internal/satmath"
)

// TestBucketsLayout pins the rounded-bucket geometry for several
// accuracy factors: every value lands in exactly one bucket whose range
// contains it, ranges are contiguous, and the factor-k rounding
// guarantee Hi(j) <= k*Lo(j) - 1 holds for every bucket.
func TestBucketsLayout(t *testing.T) {
	for _, k := range []uint64{2, 3, 10} {
		b, err := NewBuckets(k, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := b.Index(0); got != 0 {
			t.Errorf("k=%d: Index(0) = %d, want 0", k, got)
		}
		if b.Lo(0) != 0 || b.Hi(0) != 0 {
			t.Errorf("k=%d: bucket 0 = [%d, %d], want [0, 0]", k, b.Lo(0), b.Hi(0))
		}
		for j := 1; j < b.N(); j++ {
			lo, hi := b.Lo(j), b.Hi(j)
			if lo > hi {
				t.Fatalf("k=%d: bucket %d = [%d, %d] inverted", k, j, lo, hi)
			}
			if prev := b.Hi(j - 1); lo != prev+1 {
				t.Errorf("k=%d: bucket %d starts at %d, want contiguous after %d", k, j, lo, prev)
			}
			if hi != ^uint64(0) && (lo > ^uint64(0)/k || hi > lo*k-1) {
				t.Errorf("k=%d: bucket %d = [%d, %d] wider than factor %d", k, j, lo, hi, k)
			}
			for _, v := range []uint64{lo, hi} {
				if got := b.Index(v); got != j {
					t.Errorf("k=%d: Index(%d) = %d, want %d", k, v, got, j)
				}
			}
		}
		// The top bucket reaches the top of the domain.
		if got := b.Index(^uint64(0)); got != b.N()-1 {
			t.Errorf("k=%d: Index(MaxUint64) = %d, want top bucket %d", k, got, b.N()-1)
		}
		if hi := b.Hi(b.N() - 1); hi != ^uint64(0) {
			t.Errorf("k=%d: top bucket Hi = %d, want MaxUint64", k, hi)
		}
	}

	// k = 2 has a closed form: Index(v) = bits.Len(v) for v >= 1.
	b2, err := NewBuckets(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{1, 2, 3, 4, 7, 8, 1023, 1024, 1 << 40, ^uint64(0)} {
		if got, want := b2.Index(v), bits.Len64(v); got != want {
			t.Errorf("k=2: Index(%d) = %d, want %d", v, got, want)
		}
	}

	// A bound shrinks the table to exactly the buckets the domain needs.
	bb, err := NewBuckets(2, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	if bb.N() != 11 { // {0}, [1,1], ..., [512, 1023]
		t.Errorf("k=2 bound 1024: N = %d, want 11", bb.N())
	}
	if !bb.Contains(1023) || bb.Contains(1024) {
		t.Error("Contains must accept 1023 and reject 1024 for bound 1024")
	}
}

// refIndex is the bucket index as a log-k loop of saturating multiplies,
// the layout's original arithmetic: the reference the boundary table
// must reproduce.
func refIndex(k, v uint64) int {
	if v == 0 {
		return 0
	}
	j, lo := 1, uint64(1)
	for {
		if lo > math.MaxUint64/k || v <= lo*k-1 {
			return j
		}
		j++
		lo *= k
	}
}

// refLo and refHi are bucket j's bounds as saturating powers of k.
func refLo(k uint64, j int) uint64 {
	if j == 0 {
		return 0
	}
	return satmath.Pow(k, uint64(j-1))
}

func refHi(k uint64, j int) uint64 {
	if j == 0 {
		return 0
	}
	if lo := refLo(k, j); lo <= math.MaxUint64/k {
		return lo*k - 1
	}
	return math.MaxUint64
}

// checkIndex fails unless Index(v) and the bounds of v's bucket match
// the reference arithmetic.
func checkIndex(t *testing.T, b Buckets, k, v uint64) {
	t.Helper()
	j := b.Index(v)
	if want := refIndex(k, v); j != want {
		t.Fatalf("k=%d: Index(%d) = %d, want %d", k, v, j, want)
	}
	if lo, hi := b.Lo(j), b.Hi(j); lo != refLo(k, j) || hi != refHi(k, j) || v < lo || v > hi {
		t.Fatalf("k=%d: bucket %d of %d = [%d, %d], want [%d, %d]", k, j, v, lo, hi, refLo(k, j), refHi(k, j))
	}
}

// TestBucketsMatchReference checks the boundary table against the
// reference arithmetic: Index, and Lo and Hi of the bucket it picks, at
// every reference boundary, one either side of it and at log-uniform
// random values, and N of full and bounded layouts, for small, large,
// power-of-two-adjacent and random factors.
func TestBucketsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	logUniform := func() uint64 { return rng.Uint64() >> rng.Intn(64) }
	ks := []uint64{2, 3, 4, 5, 7, 10, 16, 100, 1 << 20, 1<<32 - 1, 1 << 32, 1<<32 + 1,
		1 << 62, 1<<63 + 5, math.MaxUint64 - 1, math.MaxUint64}
	for range 200 {
		ks = append(ks, 2+logUniform()%(math.MaxUint64-1))
	}
	for _, k := range ks {
		b, err := NewBuckets(k, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := b.N(), refIndex(k, math.MaxUint64)+1; got != want {
			t.Fatalf("k=%d: N = %d, want %d", k, got, want)
		}
		for j := 0; j < b.N(); j++ {
			lo, hi := refLo(k, j), refHi(k, j)
			for _, v := range []uint64{lo - 1, lo, lo + 1, hi - 1, hi, hi + 1} {
				checkIndex(t, b, k, v) // wrapped probes land on 0 or MaxUint64
			}
		}
		for range 100 {
			checkIndex(t, b, k, logUniform())
		}
		for _, bound := range []uint64{1, 2, k - 1, k, k + 1, 1000, 1 << 40, 1 + logUniform()} {
			bb, err := NewBuckets(k, bound)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := bb.N(), refIndex(k, bound-1)+1; got != want {
				t.Fatalf("k=%d bound %d: N = %d, want %d", k, bound, got, want)
			}
		}
	}
}

// FuzzBucketsIndex checks Index and the bounds of the bucket it picks
// against the reference arithmetic for any factor k >= 2 and value v.
// Each input builds its own unshared table: interning every fuzzed k
// would keep a table per input alive for the rest of the run.
func FuzzBucketsIndex(f *testing.F) {
	for _, seed := range [][2]uint64{
		{2, 0}, {2, 1}, {2, math.MaxUint64}, {3, 8}, {3, 9}, {10, 999}, {10, 1000},
		{1 << 32, 1 << 32}, {1<<32 + 1, math.MaxUint64}, {math.MaxUint64, math.MaxUint64 - 1},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, k, v uint64) {
		if k < 2 {
			t.Skip("rounded layouts need k >= 2")
		}
		checkIndex(t, Buckets{t: newTable(k)}, k, v)
	})
}

// TestBucketsFootprint pins what the boundary table costs a layout: a
// Buckets stays three words (the table pointer replaced the factor), and
// every layout with the same k shares one table.
func TestBucketsFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Buckets{}); got != 24 {
		t.Errorf("Buckets is %d bytes, want 24", got)
	}
	full, err := NewBuckets(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := NewBuckets(3, 1000)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewBuckets(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if full.t != bounded.t {
		t.Error("two layouts with k = 3 built separate tables")
	}
	if full.t == other.t {
		t.Error("layouts with k = 3 and k = 4 share a table")
	}
}

// TestBucketsExact pins the k = 1 bucket-per-value table and the layout
// validation errors.
func TestBucketsExact(t *testing.T) {
	b, err := NewBuckets(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if b.N() != 100 {
		t.Errorf("exact bound 100: N = %d, want 100", b.N())
	}
	for _, v := range []uint64{0, 1, 42, 99} {
		if b.Index(v) != int(v) || b.Lo(int(v)) != v || b.Hi(int(v)) != v {
			t.Errorf("exact: bucket of %d is not the value itself", v)
		}
	}
	for _, tc := range []struct{ k, bound uint64 }{
		{0, 10},                  // k < 1
		{1, 0},                   // exact without a domain
		{1, MaxExactBuckets + 1}, // exact table too large
	} {
		if _, err := NewBuckets(tc.k, tc.bound); err == nil {
			t.Errorf("NewBuckets(%d, %d) accepted, want error", tc.k, tc.bound)
		}
	}
}

// TestQueryEngineAgainstReference drives random value sets through the
// bucket layout and checks every query against the documented
// deterministic bound relative to the exact reference — with no
// buffering in play (U = 0), so the bounds are pure bucket rounding.
func TestQueryEngineAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []uint64{1, 2, 4} {
		bound := uint64(1 << 12)
		b, err := NewBuckets(k, bound)
		if err != nil {
			t.Fatal(err)
		}
		values := make([]uint64, 5000)
		counts := make([]uint64, b.N())
		for i := range values {
			// Skewed toward small values, like a latency distribution.
			v := uint64(rng.ExpFloat64() * 200)
			if v >= bound {
				v = bound - 1
			}
			values[i] = v
			counts[b.Index(v)]++
		}
		ref := planetest.NewExactRef(values)

		if got := Count(counts); got != uint64(len(values)) {
			t.Errorf("k=%d: Count = %d, want %d", k, got, len(values))
		}
		if got := Sum(b, counts); got > ref.Sum() || satmath.Mul(got, k) < ref.Sum() {
			t.Errorf("k=%d: Sum = %d outside [%d/%d, %d]", k, got, ref.Sum(), k, ref.Sum())
		}
		for _, v := range []uint64{0, 1, 17, 100, 555, bound - 1} {
			got := Rank(b, counts, v)
			lo, hi := ref.Rank(v), ref.Rank(b.Hi(b.Index(v)))
			if got < lo || got > hi {
				t.Errorf("k=%d: Rank(%d) = %d outside [A(v), A(Hi)] = [%d, %d]", k, v, got, lo, hi)
			}
			wantCDF := float64(got) / float64(len(values))
			if cdf := CDF(b, counts, v); cdf != wantCDF {
				t.Errorf("k=%d: CDF(%d) = %v, want Rank/Count = %v", k, v, cdf, wantCDF)
			}
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			got := Quantile(b, counts, q)
			y := ref.At(TargetRank(q, uint64(len(values))))
			if got > y {
				t.Errorf("k=%d: Quantile(%v) = %d overstates the rank value %d", k, q, got, y)
			} else if k > 1 && y > 0 && satmath.Mul(got, k) <= y {
				t.Errorf("k=%d: Quantile(%v) = %d understates %d by more than factor %d", k, q, got, y, k)
			}
			if k == 1 && got != y {
				t.Errorf("exact: Quantile(%v) = %d, want %d", q, got, y)
			}
		}
	}
}

// TestQuantileEdge pins the degenerate query cases.
func TestQuantileEdge(t *testing.T) {
	b, err := NewBuckets(2, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	empty := make([]uint64, b.N())
	if Quantile(b, empty, 0.5) != 0 || Count(empty) != 0 || CDF(b, empty, 7) != 0 {
		t.Error("empty histogram queries must return 0")
	}
	counts := make([]uint64, b.N())
	counts[b.Index(3)] = 5
	counts[b.Index(100)] = 5
	if got := Quantile(b, counts, 0); got != b.Lo(b.Index(3)) {
		t.Errorf("Quantile(0) = %d, want the minimum's bucket floor %d", got, b.Lo(b.Index(3)))
	}
	if got := Quantile(b, counts, 1); got != b.Lo(b.Index(100)) {
		t.Errorf("Quantile(1) = %d, want the maximum's bucket floor %d", got, b.Lo(b.Index(100)))
	}
	for _, q := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(%v) did not panic", q)
				}
			}()
			Quantile(b, counts, q)
		}()
	}
}

// TestBucketsConcurrentIntern builds layouts for a few factors from many
// goroutines at once: each factor still gets exactly one table. Run with
// -race.
func TestBucketsConcurrentIntern(t *testing.T) {
	const goroutines, factors = 8, 5
	got := make([][factors]*table, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range factors {
				k := uint64(1000 + (g+i)%factors)
				b, err := NewBuckets(k, 0)
				if err != nil {
					t.Error(err)
					return
				}
				got[g][k-1000] = b.t
			}
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d got tables %v, goroutine 0 got %v", g, got[g], got[0])
		}
	}
}

// TestTargetRankLargeTotals pins the rank convention where float64 can no
// longer hold the total: q = 1 must still target the maximum (a product
// of 2^64 used to convert out of range and clamp to rank 1), and q = 0
// the minimum. At 2^53+1, float64(total) rounds down to 2^53, so the
// median's product rounds before the ceiling.
func TestTargetRankLargeTotals(t *testing.T) {
	for _, tc := range []struct {
		total uint64
		q     float64
		want  uint64
	}{
		{1<<53 + 1, 0, 1},
		{1<<53 + 1, 0.5, 1 << 52},
		{1<<53 + 1, 1, 1<<53 + 1},
		{1 << 63, 0, 1},
		{1 << 63, 0.5, 1 << 62},
		{1 << 63, 1, 1 << 63},
		{math.MaxUint64, 0, 1},
		{math.MaxUint64, 0.5, 1 << 63},
		{math.MaxUint64, 1, math.MaxUint64},
	} {
		if got := TargetRank(tc.q, tc.total); got != tc.want {
			t.Errorf("TargetRank(%v, %d) = %d, want %d", tc.q, tc.total, got, tc.want)
		}
	}
}

// TestVector pins the per-shard bucket vector: additions from several
// processes sum on read, and every addition is a single register write.
func TestVector(t *testing.T) {
	f := prim.NewFactory(3)
	v, err := NewVector(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v.Buckets() != 4 {
		t.Fatalf("Buckets = %d, want 4", v.Buckets())
	}
	h0 := v.HistHandle(f.Proc(0))
	h1 := v.HistHandle(f.Proc(1))
	h0.AddN(2, 5)
	h1.AddN(2, 7)
	h1.AddN(0, 1)
	reader := v.HistHandle(f.Proc(2))
	got := reader.Read()
	if got[0] != 1 || got[1] != 0 || got[2] != 12 || got[3] != 0 {
		t.Errorf("Read = %v, want [1 0 12 0]", got)
	}

	// Every addition is one write: the handle caches its own row.
	p := f.Proc(0)
	before := p.Steps()
	h0.AddN(2, 1)
	if d := p.Steps() - before; d != 1 {
		t.Errorf("repeat AddN took %d steps, want 1 (cached row)", d)
	}
	before = p.Steps()
	h0.AddN(3, 1)
	if d := p.Steps() - before; d != 1 {
		t.Errorf("first AddN to a fresh bucket took %d steps, want 1 (cached row)", d)
	}
	h0.AddN(3, 0) // zero additions take no steps
	if d := p.Steps() - before; d != 1 {
		t.Errorf("AddN(_, 0) took steps")
	}

	if _, err := NewVector(prim.NewFactory(1), 0); err == nil {
		t.Error("NewVector accepted zero buckets")
	}
}

// TestExactIndexClampsQueries pins the out-of-domain query behavior of
// the exact layout: Rank/CDF may probe any value (only Observe
// validates), and huge values must land in the top bucket instead of
// overflowing int and silently summing no buckets.
func TestExactIndexClampsQueries(t *testing.T) {
	b, err := NewBuckets(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]uint64, b.N())
	counts[5] = 7
	counts[99] = 3
	for _, v := range []uint64{100, 1 << 40, ^uint64(0)} {
		if got := b.Index(v); got != 99 {
			t.Errorf("Index(%d) = %d, want the top bucket 99", v, got)
		}
		if got := Rank(b, counts, v); got != 10 {
			t.Errorf("Rank(%d) = %d, want the full count 10", v, got)
		}
		if got := CDF(b, counts, v); got != 1 {
			t.Errorf("CDF(%d) = %v, want 1", v, got)
		}
	}
}

// TestRankCDFAtBucketBoundaries pins the inclusion semantics of Rank and
// CDF exactly at the bucket boundaries, where off-by-one bugs hide: a
// probe at Lo(j) or Hi(j) counts bucket j in full (Rank answers "at most
// the top of v's bucket"), and stepping one past Hi(j) picks up the next
// bucket. Quantile(1.0) must land on the highest nonempty bucket's floor
// for every layout.
func TestRankCDFAtBucketBoundaries(t *testing.T) {
	for _, tc := range []struct {
		k     uint64
		bound uint64
	}{
		{1, 64},
		{2, 1 << 10},
		{4, 1 << 10},
		{10, 100_000},
	} {
		b, err := NewBuckets(tc.k, tc.bound)
		if err != nil {
			t.Fatalf("k=%d: %v", tc.k, err)
		}
		counts := make([]uint64, b.N())
		for j := range counts {
			counts[j] = uint64(j%3) + 1 // nonuniform, every bucket nonempty
		}
		total := Count(counts)
		cum := uint64(0)
		for j := 0; j < b.N(); j++ {
			cum += counts[j]
			for _, v := range []uint64{b.Lo(j), b.Hi(j)} {
				if got := Rank(b, counts, v); got != cum {
					t.Errorf("k=%d: Rank(%d) at boundary of bucket %d = %d, want %d", tc.k, v, j, got, cum)
				}
				if got, want := CDF(b, counts, v), float64(cum)/float64(total); got != want {
					t.Errorf("k=%d: CDF(%d) at boundary of bucket %d = %v, want %v", tc.k, v, j, got, want)
				}
			}
			if j+1 < b.N() {
				if got := Rank(b, counts, b.Hi(j)+1); got != cum+counts[j+1] {
					t.Errorf("k=%d: Rank(%d) one past bucket %d = %d, want %d", tc.k, b.Hi(j)+1, j, got, cum+counts[j+1])
				}
			}
		}
		if got, want := Quantile(b, counts, 1.0), b.Lo(b.N()-1); got != want {
			t.Errorf("k=%d: Quantile(1.0) = %d, want top nonempty bucket floor %d", tc.k, got, want)
		}
		// Quantile(1.0) with the top buckets empty must find the highest
		// NONEMPTY bucket, not the last slot of the vector.
		sparse := make([]uint64, b.N())
		mid := b.N() / 2
		sparse[mid] = 9
		if got, want := Quantile(b, sparse, 1.0), b.Lo(mid); got != want {
			t.Errorf("k=%d: sparse Quantile(1.0) = %d, want %d", tc.k, got, want)
		}
	}
}
