package main

import (
	"fmt"
	"testing"
	"time"

	"approxobj"
)

// checkerFixture is a checker over one goroutine that has completed 100
// requests, each incrementing object 0 (a Multiplicative(2) counter) and
// writing i+1 to object 1 (an exact max register).
func checkerFixture() *checker {
	var cur cursor
	cur.inv.Store(100)
	cur.done.Store(100)
	ring := newOpRing(1000, 2, func(i int, t *tally) {
		t.count[0]++
		t.max[1] = max(t.max[1], uint64(i+1))
	})
	objs := []tracked{
		trackedOf("events", approxobj.KindCounter, approxobj.Bounds{Mult: 2}, 0),
		trackedOf("depth", approxobj.KindMaxRegister, approxobj.ExactBounds(), 0),
	}
	return newChecker([]*opRing{ring}, []*cursor{&cur}, newTally(2), objs, []group{{}})
}

func exposition(events, depth uint64) []byte {
	return fmt.Appendf(nil, "# HELP events_total x\n# TYPE events_total counter\nevents_total %d\nevents_bound{term=\"mult\"} 2\n# TYPE depth gauge\ndepth %d\n", events, depth)
}

func TestCheckerCatchesOutOfEnvelopeValue(t *testing.T) {
	for _, c := range []struct {
		name          string
		events, depth uint64
		wantFailed    int64
	}{
		{"inside", 150, 100, 0},
		{"lower edge", 50, 100, 0},
		{"counter below v/k", 49, 100, 1},
		{"counter above k·v", 201, 100, 1},
		{"exact max off by one", 150, 99, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			chk := checkerFixture()
			chk.sample()
			chk.exposition(exposition(c.events, c.depth), chk.now())
			if chk.checks != 2 || chk.failed != c.wantFailed {
				t.Errorf("checks=%d failed=%d (%v); want 2 checks, %d failed", chk.checks, chk.failed, chk.msgs, c.wantFailed)
			}
		})
	}
}

func TestCheckerFailsMissingSeries(t *testing.T) {
	chk := checkerFixture()
	chk.sample()
	chk.exposition([]byte("events_total 100\n"), chk.now())
	if chk.failed != 1 {
		t.Errorf("failed=%d (%v); want the missing depth series to fail", chk.failed, chk.msgs)
	}
}

// A windowed object's value must cover only the recent part of the run:
// with no history older than the window, the lower bound is empty, and a
// value far above everything issued still fails.
func TestCheckerWindowedBracket(t *testing.T) {
	chk := checkerFixture()
	chk.groups = []group{{window: time.Second, epoch: 250 * time.Millisecond}}
	chk.sample()
	chk.value(0, 0, chk.now())
	chk.value(0, 201, chk.now())
	if chk.checks != 2 || chk.failed != 1 {
		t.Errorf("checks=%d failed=%d (%v); want 0 accepted and 201 rejected", chk.checks, chk.failed, chk.msgs)
	}
}
