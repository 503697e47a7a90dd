package main

import "testing"

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := digest(w.gen(1)), digest(w.gen(1)), digest(w.gen(2))
		if a != b {
			t.Errorf("%s: seed 1 gave two different input digests", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same input digest", w.name)
		}
	}
}

func TestTallyRangeWraps(t *testing.T) {
	r := newOpRing(4, 1, func(i int, t *tally) {
		t.count[0] += uint64(i + 1) // one pass adds 1+2+3+4 = 10
		t.max[0] = max(t.max[0], uint64(i))
	})
	got := newTally(1)
	r.tallyRange(2, 11, got) // entries 2,3 | 0,1,2,3 | 0,1,2
	if got.count[0] != 3+4+10+1+2+3 || got.max[0] != 3 {
		t.Errorf("tally of requests 2..10 = count %d, max %d; want 23, 3", got.count[0], got.max[0])
	}
}
