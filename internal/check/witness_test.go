package check

import (
	"math/rand"
	"testing"

	"approxobj/internal/history"
	"approxobj/internal/object"
)

// TestCounterPrefixSetsNotJustCounts is the regression test for a
// soundness gap found while building the witness constructor: an increment
// that an earlier read could not contain (it began after that read ended)
// still joins the mandatory prefix of a later read, so prefix constraints
// union as sets — a count-based monotone floor wrongly accepts this
// history.
func TestCounterPrefixSetsNotJustCounts(t *testing.T) {
	h := []history.Op{
		{Proc: 0, Kind: history.KindInc, Inv: 5, Ret: 100},                  // e: concurrent with r1
		{Proc: 1, Kind: history.KindCounterRead, Resp: 1, Inv: 10, Ret: 20}, // r1: must contain e
		{Proc: 2, Kind: history.KindInc, Inv: 25, Ret: 30},                  // f: after r1, before r2
		{Proc: 1, Kind: history.KindCounterRead, Resp: 1, Inv: 40, Ret: 50}, // r2: needs {e, f} => 2
	}
	if res := Counter(h, object.ExactBounds(), 0); res.OK {
		t.Fatal("accepted a history whose second read must contain two increments but returned 1")
	}
	// The same shape with r2 = 2 is linearizable.
	h[3].Resp = 2
	if res := Counter(h, object.ExactBounds(), 0); !res.OK {
		t.Fatalf("rejected the corrected history: %s", res.Reason)
	}
	// And a witness must exist and verify for it.
	res, w := CounterWitness(h, object.ExactBounds(), 0)
	if !res.OK || w == nil {
		t.Fatalf("no witness for corrected history: %s", res.Reason)
	}
}

func TestWitnessSequentialHistories(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		h := genCounterHistory(rng, 80)
		res, w := CounterWitness(h, object.ExactBounds(), 0)
		if !res.OK {
			t.Fatalf("sequential history rejected: %s", res.Reason)
		}
		if len(w) != len(h) {
			t.Fatalf("witness has %d ops, history has %d", len(w), len(h))
		}
	}
}

func TestWitnessConcurrentEnvelope(t *testing.T) {
	// Random overlapping histories with reads answering the current exact
	// count times a factor within k: the checker accepts and the witness
	// must verify.
	rng := rand.New(rand.NewSource(23))
	const k = 2
	for trial := 0; trial < 100; trial++ {
		var (
			h     []history.Op
			clock uint64
			count uint64
			open  []int // indices of open increments
		)
		for i := 0; i < 60; i++ {
			clock++
			switch rng.Intn(4) {
			case 0: // open an increment
				h = append(h, history.Op{Kind: history.KindInc, Inv: clock})
				open = append(open, len(h)-1)
			case 1: // close an increment
				if len(open) > 0 {
					j := open[0]
					open = open[1:]
					h[j].Ret = clock
					count++
				}
			default: // instantaneous read of the completed count
				resp := count
				if resp > 0 && rng.Intn(2) == 0 {
					resp = count * k // stretch to the envelope edge
				}
				clock++
				h = append(h, history.Op{Kind: history.KindCounterRead, Resp: resp, Inv: clock - 1, Ret: clock})
			}
		}
		// Close leftovers.
		for _, j := range open {
			clock++
			h[j].Ret = clock
		}
		res, w := CounterWitness(h, object.Bounds{Mult: k}, 0)
		if !res.OK {
			t.Fatalf("trial %d rejected: %s", trial, res.Reason)
		}
		if w == nil {
			t.Fatalf("trial %d: no witness", trial)
		}
	}
}

func TestWitnessRejectsBadHistory(t *testing.T) {
	h := []history.Op{
		{Kind: history.KindInc, Inv: 1, Ret: 2},
		{Kind: history.KindCounterRead, Resp: 5, Inv: 3, Ret: 4},
	}
	res, w := CounterWitness(h, object.ExactBounds(), 0)
	if res.OK || w != nil {
		t.Fatal("witness produced for a non-linearizable history")
	}
}

func TestWitnessSkippedWithPending(t *testing.T) {
	h := []history.Op{
		{Kind: history.KindInc, Inv: 1, Ret: 2},
		{Kind: history.KindCounterRead, Resp: 2, Inv: 3, Ret: 4},
	}
	res, w := CounterWitness(h, object.ExactBounds(), 1)
	if !res.OK {
		t.Fatalf("pending-inc history rejected: %s", res.Reason)
	}
	if w != nil {
		t.Fatal("witness constructed despite crashed increments")
	}
}

func TestVerifyCounterWitnessCatchesViolations(t *testing.T) {
	// Precedence violation.
	bad := []history.Op{
		{Kind: history.KindCounterRead, Resp: 0, Inv: 10, Ret: 11},
		{Kind: history.KindInc, Inv: 1, Ret: 2}, // precedes the read but ordered after
	}
	if err := verifyCounterWitness(bad, object.ExactBounds()); err == nil {
		t.Fatal("verifier missed a precedence violation")
	}
	// Spec violation.
	bad2 := []history.Op{
		{Kind: history.KindInc, Inv: 1, Ret: 2},
		{Kind: history.KindCounterRead, Resp: 0, Inv: 3, Ret: 4},
	}
	if err := verifyCounterWitness(bad2, object.ExactBounds()); err == nil {
		t.Fatal("verifier missed a spec violation")
	}
}
