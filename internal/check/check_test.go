package check

import (
	"testing"

	"approxobj/internal/history"
	"approxobj/internal/object"
)

// ops builds a history from compact tuples.
type opSpec struct {
	proc     int
	kind     history.Kind
	arg      uint64
	resp     uint64
	inv, ret uint64
}

func build(specs []opSpec) []history.Op {
	ops := make([]history.Op, len(specs))
	for i, s := range specs {
		ops[i] = history.Op{Proc: s.proc, Kind: s.kind, Arg: s.arg, Resp: s.resp, Inv: s.inv, Ret: s.ret}
	}
	return ops
}

func TestCounterExactSequentialAccepted(t *testing.T) {
	h := build([]opSpec{
		{0, history.KindInc, 0, 0, 1, 2},
		{0, history.KindCounterRead, 0, 1, 3, 4},
		{1, history.KindInc, 0, 0, 5, 6},
		{1, history.KindCounterRead, 0, 2, 7, 8},
	})
	if res := Counter(h, object.ExactBounds(), 0); !res.OK {
		t.Fatalf("sequential exact history rejected: %s", res.Reason)
	}
}

func TestCounterExactWrongValueRejected(t *testing.T) {
	h := build([]opSpec{
		{0, history.KindInc, 0, 0, 1, 2},
		{0, history.KindCounterRead, 0, 2, 3, 4}, // only 1 inc happened
	})
	if res := Counter(h, object.ExactBounds(), 0); res.OK {
		t.Fatal("over-reporting read accepted")
	}
	h2 := build([]opSpec{
		{0, history.KindInc, 0, 0, 1, 2},
		{0, history.KindCounterRead, 0, 0, 3, 4}, // must see the inc
	})
	if res := Counter(h2, object.ExactBounds(), 0); res.OK {
		t.Fatal("under-reporting read accepted")
	}
}

func TestCounterOverlappingIncMayCountOrNot(t *testing.T) {
	// Increment overlaps the read: both 0 and 1 are linearizable responses.
	for _, resp := range []uint64{0, 1} {
		h := build([]opSpec{
			{0, history.KindInc, 0, 0, 1, 10},
			{1, history.KindCounterRead, 0, resp, 2, 9},
		})
		if res := Counter(h, object.ExactBounds(), 0); !res.OK {
			t.Fatalf("overlapping inc, resp=%d rejected: %s", resp, res.Reason)
		}
	}
	// But 2 is impossible.
	h := build([]opSpec{
		{0, history.KindInc, 0, 0, 1, 10},
		{1, history.KindCounterRead, 0, 2, 2, 9},
	})
	if res := Counter(h, object.ExactBounds(), 0); res.OK {
		t.Fatal("read of 2 with a single inc accepted")
	}
}

func TestCounterMonotonicityEnforced(t *testing.T) {
	// Two sequential reads, both overlapping two increments: individually
	// each response is admissible, but a later read may not see fewer
	// increments than an earlier completed read.
	h := build([]opSpec{
		{0, history.KindInc, 0, 0, 1, 100},
		{1, history.KindInc, 0, 0, 1, 100},
		{2, history.KindCounterRead, 0, 2, 2, 3},
		{2, history.KindCounterRead, 0, 1, 4, 5}, // regressed
	})
	if res := Counter(h, object.ExactBounds(), 0); res.OK {
		t.Fatal("regressing sequential reads accepted")
	}
	// Same responses on overlapping reads by different processes are fine
	// if the reads overlap each other.
	h2 := build([]opSpec{
		{0, history.KindInc, 0, 0, 1, 100},
		{1, history.KindInc, 0, 0, 1, 100},
		{2, history.KindCounterRead, 0, 2, 2, 50},
		{3, history.KindCounterRead, 0, 1, 3, 49}, // overlaps the other read
	})
	if res := Counter(h2, object.ExactBounds(), 0); !res.OK {
		t.Fatalf("overlapping reads with different views rejected: %s", res.Reason)
	}
}

func TestCounterEnvelope(t *testing.T) {
	acc := object.Bounds{Mult: 3}
	// 9 sequential increments, then a read.
	var specs []opSpec
	for i := 0; i < 9; i++ {
		specs = append(specs, opSpec{0, history.KindInc, 0, 0, uint64(2*i + 1), uint64(2*i + 2)})
	}
	for _, c := range []struct {
		resp uint64
		ok   bool
	}{
		{3, true},   // 9/3
		{9, true},   // exact
		{27, true},  // 9*3
		{2, false},  // below v/k
		{28, false}, // above v*k
		{0, false},  // zero after definite increments
	} {
		h := build(append(append([]opSpec{}, specs...),
			opSpec{1, history.KindCounterRead, 0, c.resp, 100, 101}))
		res := Counter(h, acc, 0)
		if res.OK != c.ok {
			t.Errorf("k=3, v=9, resp=%d: OK=%v, want %v (%s)", c.resp, res.OK, c.ok, res.Reason)
		}
	}
}

// TestCounterRejectsWrappedRead pins the checker's envelope near 2^64: a
// read of MaxUint64 after one increment is what a counter returns when it
// decrements past zero, and no multiplicative envelope admits it.
func TestCounterRejectsWrappedRead(t *testing.T) {
	h := build([]opSpec{
		{0, history.KindInc, 0, 0, 1, 2},
		{1, history.KindCounterRead, 0, ^uint64(0), 3, 4},
	})
	for _, k := range []uint64{2, 3, 4} {
		if res := Counter(h, object.Bounds{Mult: k}, 0); res.OK {
			t.Errorf("k=%d: read of MaxUint64 after one increment accepted", k)
		}
	}
}

func TestCounterPendingIncsLoosenUpperBound(t *testing.T) {
	// One completed inc, read of 3: impossible...
	h := build([]opSpec{
		{0, history.KindInc, 0, 0, 1, 2},
		{1, history.KindCounterRead, 0, 3, 3, 4},
	})
	if res := Counter(h, object.ExactBounds(), 0); res.OK {
		t.Fatal("read of 3 with one inc accepted")
	}
	// ...unless two crashed increments may have landed.
	if res := Counter(h, object.ExactBounds(), 2); !res.OK {
		t.Fatalf("read of 3 with 1 inc + 2 pending rejected: %s", res.Reason)
	}
}

func TestCounterRejectsForeignOps(t *testing.T) {
	h := build([]opSpec{{0, history.KindWrite, 5, 0, 1, 2}})
	if res := Counter(h, object.ExactBounds(), 0); res.OK {
		t.Fatal("counter checker accepted a Write op")
	}
}

func TestCounterEmptyAndReadless(t *testing.T) {
	if res := Counter(nil, object.ExactBounds(), 0); !res.OK {
		t.Fatal("empty history rejected")
	}
	h := build([]opSpec{{0, history.KindInc, 0, 0, 1, 2}})
	if res := Counter(h, object.ExactBounds(), 0); !res.OK {
		t.Fatal("read-free history rejected")
	}
}

func TestMaxRegisterExactSequential(t *testing.T) {
	h := build([]opSpec{
		{0, history.KindWrite, 5, 0, 1, 2},
		{0, history.KindMaxRead, 0, 5, 3, 4},
		{1, history.KindWrite, 3, 0, 5, 6},
		{1, history.KindMaxRead, 0, 5, 7, 8}, // max stays 5
		{0, history.KindWrite, 9, 0, 9, 10},
		{0, history.KindMaxRead, 0, 9, 11, 12},
	})
	if res := MaxRegister(h, object.ExactBounds(), nil); !res.OK {
		t.Fatalf("sequential max-register history rejected: %s", res.Reason)
	}
}

func TestMaxRegisterMissedWriteRejected(t *testing.T) {
	h := build([]opSpec{
		{0, history.KindWrite, 5, 0, 1, 2},
		{1, history.KindMaxRead, 0, 0, 3, 4}, // must see 5
	})
	if res := MaxRegister(h, object.ExactBounds(), nil); res.OK {
		t.Fatal("read missing a completed write accepted")
	}
}

func TestMaxRegisterInventedValueRejected(t *testing.T) {
	h := build([]opSpec{
		{0, history.KindWrite, 5, 0, 1, 2},
		{1, history.KindMaxRead, 0, 7, 3, 4}, // 7 was never written
	})
	if res := MaxRegister(h, object.ExactBounds(), nil); res.OK {
		t.Fatal("read of never-written value accepted")
	}
}

func TestMaxRegisterOverlappingWriteOptional(t *testing.T) {
	for _, resp := range []uint64{0, 8} {
		h := build([]opSpec{
			{0, history.KindWrite, 8, 0, 1, 10},
			{1, history.KindMaxRead, 0, resp, 2, 9},
		})
		if res := MaxRegister(h, object.ExactBounds(), nil); !res.OK {
			t.Fatalf("overlapping write, resp=%d rejected: %s", resp, res.Reason)
		}
	}
}

func TestMaxRegisterMonotoneReads(t *testing.T) {
	// Read of 8 completes; a later read returning 0 is a regression even
	// though the write of 8 overlaps both reads.
	h := build([]opSpec{
		{0, history.KindWrite, 8, 0, 1, 100},
		{1, history.KindMaxRead, 0, 8, 2, 3},
		{1, history.KindMaxRead, 0, 0, 4, 5},
	})
	if res := MaxRegister(h, object.ExactBounds(), nil); res.OK {
		t.Fatal("regressing max-register reads accepted")
	}
}

func TestMaxRegisterEnvelope(t *testing.T) {
	acc := object.Bounds{Mult: 2}
	for _, c := range []struct {
		resp uint64
		ok   bool
	}{
		{8, true},  // k^p response of Algorithm 2 (5 -> 8)
		{3, true},  // 5/2 rounded up
		{10, true}, // 5*2
		{2, false}, // below 5/2
		{11, false},
	} {
		h := build([]opSpec{
			{0, history.KindWrite, 5, 0, 1, 2},
			{1, history.KindMaxRead, 0, c.resp, 3, 4},
		})
		res := MaxRegister(h, acc, nil)
		if res.OK != c.ok {
			t.Errorf("k=2, max=5, resp=%d: OK=%v, want %v (%s)", c.resp, res.OK, c.ok, res.Reason)
		}
	}
}

func TestMaxRegisterPendingWrites(t *testing.T) {
	// Read returns 9, but the write of 9 crashed before responding.
	h := build([]opSpec{
		{1, history.KindMaxRead, 0, 9, 3, 4},
	})
	if res := MaxRegister(h, object.ExactBounds(), nil); res.OK {
		t.Fatal("read of unobserved value accepted without pending writes")
	}
	if res := MaxRegister(h, object.ExactBounds(), []uint64{9}); !res.OK {
		t.Fatalf("read matching crashed write rejected: %s", res.Reason)
	}
	// A later read may also legally return 0: the crashed write is
	// optional, not mandatory... but not after a read of 9 completed.
	h2 := build([]opSpec{
		{1, history.KindMaxRead, 0, 9, 3, 4},
		{1, history.KindMaxRead, 0, 0, 5, 6},
	})
	if res := MaxRegister(h2, object.ExactBounds(), []uint64{9}); res.OK {
		t.Fatal("regression after crashed-write read accepted")
	}
}

func TestMaxRegisterRejectsForeignOps(t *testing.T) {
	h := build([]opSpec{{0, history.KindInc, 0, 0, 1, 2}})
	if res := MaxRegister(h, object.ExactBounds(), nil); res.OK {
		t.Fatal("max-register checker accepted an Inc op")
	}
}
