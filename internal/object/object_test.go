package object

import (
	"testing"
	"testing/quick"
)

func TestExactAccuracy(t *testing.T) {
	if !ExactBounds().Contains(5, 5) {
		t.Fatal("exact accuracy rejects equal values")
	}
	if ExactBounds().Contains(5, 6) || ExactBounds().Contains(5, 4) {
		t.Fatal("exact accuracy admits unequal values")
	}
}

func TestAccuracyContainsTable(t *testing.T) {
	acc := Bounds{Mult: 3}
	cases := []struct {
		v, x uint64
		want bool
	}{
		{9, 3, true},    // v/k
		{9, 27, true},   // v*k
		{9, 2, false},   // below v/k
		{9, 28, false},  // above v*k
		{0, 0, true},    // zero exact
		{0, 1, false},   // positive answer for zero value
		{1, 0, false},   // 0 < 1/3 is false over the reals: 0*3 < 1
		{2, 1, true},    // 1 >= 2/3
		{100, 34, true}, // ceil(100/3) = 34
		{100, 33, false},
	}
	for _, c := range cases {
		if got := acc.Contains(c.v, c.x); got != c.want {
			t.Errorf("Contains(v=%d, x=%d) = %v, want %v", c.v, c.x, got, c.want)
		}
	}
}

func TestAccuracyContainsQuick(t *testing.T) {
	// Property: Contains(v, x) iff x*K >= v and x <= v*K over big.Int-free
	// rational arithmetic, here checked via float bounds on small inputs.
	check := func(vRaw, xRaw uint32, kRaw uint8) bool {
		v, x := uint64(vRaw), uint64(xRaw)
		k := uint64(kRaw)%7 + 2
		acc := Bounds{Mult: k}
		want := x*k >= v && x <= v*k
		return acc.Contains(v, x) == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAccuracyVExactInside(t *testing.T) {
	// Property: the exact value is always admissible, and so are v/k
	// (rounded up) and v*k.
	check := func(vRaw uint32, kRaw uint8) bool {
		v := uint64(vRaw)
		k := uint64(kRaw)%9 + 1
		acc := Bounds{Mult: k}
		if !acc.Contains(v, v) {
			return false
		}
		if k > 1 && v > 0 {
			up := (v + k - 1) / k
			if !acc.Contains(v, up) || !acc.Contains(v, v*k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAccuracyOverflowSaturation(t *testing.T) {
	max := ^uint64(0)
	acc := Bounds{Mult: 1000}
	// x*K overflows: lower bound check must treat it as +inf, not reject.
	if !acc.Contains(max, max/2) {
		t.Fatal("huge x rejected despite x*k overflowing past v")
	}
	// v*K overflows: upper bound is +inf.
	if !acc.Contains(max/2, max) {
		t.Fatal("huge v rejected despite v*k overflowing past x")
	}
}
