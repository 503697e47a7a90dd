package check

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"approxobj/internal/history"
	"approxobj/internal/object"
)

// genCounterHistory produces a valid sequential history: ops executed one
// after another by random processes, reads returning the exact count.
func genCounterHistory(rng *rand.Rand, ops int) []history.Op {
	var (
		h     []history.Op
		clock uint64
		count uint64
	)
	for i := 0; i < ops; i++ {
		proc := rng.Intn(4)
		inv := clock + 1
		ret := clock + 2
		clock += 2
		if rng.Intn(3) > 0 {
			count++
			h = append(h, history.Op{Proc: proc, Kind: history.KindInc, Inv: inv, Ret: ret})
		} else {
			h = append(h, history.Op{Proc: proc, Kind: history.KindCounterRead, Resp: count, Inv: inv, Ret: ret})
		}
	}
	return h
}

func TestCheckerAcceptsGeneratedSequentialHistories(t *testing.T) {
	check := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		h := genCounterHistory(rng, int(opsRaw)%100+5)
		return Counter(h, object.ExactBounds(), 0).OK
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckerRejectsMutatedResponses guards against the checker becoming
// vacuous: bump a random read's response in a valid exact history by a
// nonzero delta and the checker must reject (exact semantics leave no
// slack for sequential histories).
func TestCheckerRejectsMutatedResponses(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	rejected, trials := 0, 0
	for i := 0; i < 200; i++ {
		h := genCounterHistory(rng, 60)
		var readIdxs []int
		for j, op := range h {
			if op.Kind == history.KindCounterRead {
				readIdxs = append(readIdxs, j)
			}
		}
		if len(readIdxs) == 0 {
			continue
		}
		j := readIdxs[rng.Intn(len(readIdxs))]
		delta := uint64(rng.Intn(5) + 1)
		if rng.Intn(2) == 0 && h[j].Resp >= delta {
			h[j].Resp -= delta
		} else {
			h[j].Resp += delta
		}
		trials++
		if !Counter(h, object.ExactBounds(), 0).OK {
			rejected++
		}
	}
	if rejected != trials {
		t.Fatalf("checker accepted %d of %d mutated exact histories", trials-rejected, trials)
	}
}

// TestCheckerEnvelopeSlack verifies the relaxed checker accepts exactly the
// k-scaled mutations: multiplying a read's response by k stays admissible
// under a k-multiplicative envelope, multiplying by k+1 (over the whole
// history) eventually does not.
func TestCheckerEnvelopeSlack(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const k = 3
	acc := object.Bounds{Mult: k}
	for i := 0; i < 50; i++ {
		h := genCounterHistory(rng, 80)
		scaled := make([]history.Op, len(h))
		copy(scaled, h)
		for j := range scaled {
			if scaled[j].Kind == history.KindCounterRead {
				scaled[j].Resp *= k
			}
		}
		if res := Counter(scaled, acc, 0); !res.OK {
			t.Fatalf("x*k responses rejected under k envelope: %s", res.Reason)
		}
		over := make([]history.Op, len(h))
		copy(over, h)
		bad := false
		for j := range over {
			if over[j].Kind == history.KindCounterRead {
				over[j].Resp = over[j].Resp*k + over[j].Resp + 1 // > v*k
				bad = true
			}
		}
		if bad {
			if res := Counter(over, acc, 0); res.OK {
				t.Fatal("responses above v*k accepted under k envelope")
			}
		}
	}
}

// TestAdmissibleInvertsContains checks that admissible(b, x) is exactly
// the set of true values b.Contains admits: on random small envelopes by
// brute force, and on a table of boundary rows, including reads near 2^64
// where a rounded-up quotient (x-Add+Mult-1)/Mult wraps to 0.
func TestAdmissibleInvertsContains(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		b := object.Bounds{Mult: uint64(rng.Intn(6)), Add: uint64(rng.Intn(5)), Buffer: uint64(rng.Intn(7))}
		for x := uint64(0); x < 200; x++ {
			lo, hi := admissible(b, x)
			for v := uint64(0); v < 1500; v++ {
				if in := lo <= v && v <= hi; in != b.Contains(v, x) {
					t.Fatalf("%+v, x=%d: admissible = [%d, %d], but Contains(%d) = %v", b, x, lo, hi, v, !in)
				}
			}
		}
	}
	for _, c := range []struct {
		b      object.Bounds
		x      uint64
		lo, hi uint64
	}{
		{object.Bounds{Mult: 1, Add: 5}, 0, 0, 5},
		{object.Bounds{Mult: 1, Add: 5}, 3, 0, 8},
		{object.Bounds{Mult: 1, Add: 5}, 5, 0, 10},
		{object.Bounds{Mult: 1, Add: 5}, 6, 1, 11},
		{object.Bounds{Mult: 1, Add: 5}, 100, 95, 105},
		{object.Bounds{Mult: 1, Add: 10}, math.MaxUint64 - 3, math.MaxUint64 - 13, math.MaxUint64},
		{object.Bounds{Mult: 2}, math.MaxUint64, 1 << 63, math.MaxUint64},
		{object.Bounds{Mult: 4}, math.MaxUint64 - 1, 1 << 62, math.MaxUint64},
		{object.Bounds{Mult: 3, Buffer: 7}, 10, 4, 37},
	} {
		if lo, hi := admissible(c.b, c.x); lo != c.lo || hi != c.hi {
			t.Errorf("admissible(%+v, %d) = [%d, %d], want [%d, %d]", c.b, c.x, lo, hi, c.lo, c.hi)
		}
	}
}

// FuzzAdmissible searches (Mult, Add, Buffer, x, v) for a disagreement
// between admissible and b.Contains, and checks that the returned range
// is tight: lo and hi are admissible, lo-1 and hi+1 are not.
func FuzzAdmissible(f *testing.F) {
	const top = uint64(math.MaxUint64)
	f.Add(uint64(2), uint64(0), uint64(0), top, uint64(1))
	f.Add(uint64(3), uint64(0), uint64(0), top, uint64(1))
	f.Add(uint64(4), uint64(0), uint64(0), top-1, uint64(1<<62))
	f.Add(uint64(1), uint64(10), uint64(0), top-3, top)
	f.Add(uint64(0), uint64(4), uint64(6), uint64(199), uint64(1021))
	f.Fuzz(func(t *testing.T, mult, add, buffer, x, v uint64) {
		b := object.Bounds{Mult: mult, Add: add, Buffer: buffer}
		lo, hi := admissible(b, x)
		if in := lo <= v && v <= hi; in != b.Contains(v, x) {
			t.Fatalf("%+v, x=%d: admissible = [%d, %d], but Contains(%d) = %v", b, x, lo, hi, v, !in)
		}
		if !b.Contains(lo, x) || !b.Contains(hi, x) {
			t.Fatalf("%+v, x=%d: an end of [%d, %d] is not admissible", b, x, lo, hi)
		}
		if lo > 0 && b.Contains(lo-1, x) {
			t.Fatalf("%+v, x=%d: lo-1 = %d is admissible", b, x, lo-1)
		}
		if hi < math.MaxUint64 && b.Contains(hi+1, x) {
			t.Fatalf("%+v, x=%d: hi+1 = %d is admissible", b, x, hi+1)
		}
	})
}

func TestCounterAdditiveEnvelope(t *testing.T) {
	// 10 increments then reads at various distances.
	var h []history.Op
	clock := uint64(0)
	for i := 0; i < 10; i++ {
		h = append(h, history.Op{Kind: history.KindInc, Inv: clock + 1, Ret: clock + 2})
		clock += 2
	}
	read := func(resp uint64) []history.Op {
		return append(append([]history.Op{}, h...),
			history.Op{Proc: 1, Kind: history.KindCounterRead, Resp: resp, Inv: clock + 1, Ret: clock + 2})
	}
	for _, c := range []struct {
		resp uint64
		ok   bool
	}{
		{10, true}, {7, true}, {13, true}, {6, false}, {14, false},
	} {
		res := Counter(read(c.resp), object.Bounds{Mult: 1, Add: 3}, 0)
		if res.OK != c.ok {
			t.Errorf("additive k=3, v=10, resp=%d: OK=%v want %v (%s)", c.resp, res.OK, c.ok, res.Reason)
		}
	}
}
