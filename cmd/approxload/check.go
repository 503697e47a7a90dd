package main

import (
	"bytes"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"approxobj"
)

// cursor publishes how far one load goroutine has got through its input
// ring: inv counts the requests invoked, done the requests completed. The
// goroutine stores inv before a request starts and done after it returns,
// so a checker that loads done before a scrape and inv after it brackets
// every operation the scrape could have seen. Padded to its own cache
// lines so two goroutines' cursors never share one.
type cursor struct {
	inv, done atomic.Uint64
	_         [112]byte
}

// group is the read semantics shared by a set of tracked objects: the
// read-cache staleness and, for windowed objects, the window and its
// epoch length. They decide which issued operations a scraped value must
// cover.
type group struct {
	stale  time.Duration
	window time.Duration // 0 for cumulative objects
	epoch  time.Duration
}

// tracked is one registry object the checker verifies: the exposition
// series that carries its value, its envelope, and whether its true value
// is a count or a maximum of the issued operations.
type tracked struct {
	series string
	bounds approxobj.Bounds
	group  int
	isMax  bool
}

// trackedOf describes a registered object for the checker. A histogram
// is checked through its _count series, which bucket rounding never
// skews, so its Mult term does not apply.
func trackedOf(name string, kind approxobj.Kind, b approxobj.Bounds, group int) tracked {
	t := tracked{series: name, bounds: b, group: group}
	switch kind {
	case approxobj.KindCounter:
		t.series = name + "_total"
	case approxobj.KindMaxRegister:
		t.isMax = true
	case approxobj.KindHistogram:
		t.series = name + "_count"
		t.bounds.Mult = 1
	}
	return t
}

// posSample is the cursors of every load goroutine at one instant: done
// loaded before the timestamp and inv after it, so done never overstates
// and inv never understates the positions at time t.
type posSample struct {
	t         time.Duration
	inv, done []uint64
}

// checker verifies values the library returns against the operations the
// benchmark itself issued. It is used by one goroutine at a time.
type checker struct {
	epoch  time.Time
	rings  []*opRing // per load goroutine; nil for one that mutates nothing
	cur    []*cursor
	base   *tally // effects issued before the run started (prefill)
	objs   []tracked
	groups []group
	series map[string]int

	hist []posSample // ring of recent samples
	next int

	lo, hi []*tally // per-group scratch
	vals   []uint64
	seen   []bool

	checks, failed int64
	msgs           []string
}

// historyLen covers the longest look-back a check needs (a 2 s window
// plus an epoch and the cache staleness) at one sample per millisecond.
const historyLen = 4096

func newChecker(rings []*opRing, cur []*cursor, base *tally, objs []tracked, groups []group) *checker {
	c := &checker{
		epoch: time.Now(), rings: rings, cur: cur, base: base, objs: objs, groups: groups,
		series: make(map[string]int, len(objs)),
		vals:   make([]uint64, len(objs)),
		seen:   make([]bool, len(objs)),
	}
	for i, o := range objs {
		c.series[o.series] = i
	}
	for range groups {
		c.lo = append(c.lo, newTally(len(objs)))
		c.hi = append(c.hi, newTally(len(objs)))
	}
	return c
}

func (c *checker) now() time.Duration { return time.Since(c.epoch) }

// sample records the current cursor positions into the history.
func (c *checker) sample() {
	if len(c.hist) < historyLen {
		c.hist = append(c.hist, posSample{done: make([]uint64, len(c.cur)), inv: make([]uint64, len(c.cur))})
	}
	s := &c.hist[c.next]
	c.next = (c.next + 1) % historyLen
	for g, cu := range c.cur {
		s.done[g] = cu.done.Load()
	}
	s.t = c.now()
	for g, cu := range c.cur {
		s.inv[g] = cu.inv.Load()
	}
}

// doneBy returns the completed positions of the latest sample taken at or
// before t (zero when there is none): every operation they count had
// completed by t.
func (c *checker) doneBy(t time.Duration) []uint64 {
	var best *posSample
	for i := range c.hist {
		if s := &c.hist[i]; s.t <= t && (best == nil || s.t > best.t) {
			best = s
		}
	}
	if best == nil {
		return make([]uint64, len(c.cur))
	}
	return best.done
}

// invokedBy returns the invoked positions of the earliest sample taken at
// or after t, or the current ones when there is none: they count every
// operation invoked before t.
func (c *checker) invokedBy(t time.Duration) []uint64 {
	var best *posSample
	for i := range c.hist {
		if s := &c.hist[i]; s.t >= t && (best == nil || s.t < best.t) {
			best = s
		}
	}
	if best != nil {
		return best.inv
	}
	return c.invokedNow()
}

func (c *checker) invokedNow() []uint64 {
	inv := make([]uint64, len(c.cur))
	for g, cu := range c.cur {
		inv[g] = cu.inv.Load()
	}
	return inv
}

// tallyBetween sets t to the base effects plus the effects of every
// goroutine's requests lo[g]..hi[g]-1.
func (c *checker) tallyBetween(t *tally, lo, hi []uint64) {
	t.reset()
	if lo == nil {
		t.add(c.base)
	}
	for g, r := range c.rings {
		if r == nil {
			continue
		}
		var from uint64
		if lo != nil {
			from = lo[g]
		}
		r.tallyRange(from, hi[g], t)
	}
}

// windows computes, per group, the tallies bounding a read that started at
// ts and has just ended. lo counts the operations the value must cover:
// completed Stale before the read started and, for a windowed object,
// invoked no earlier than the window minus two epochs of truncation skew
// before it. hi counts the operations it may cover: invoked before the
// read ended and, for a windowed object, not completed before the window
// plus an epoch of skew reached back.
func (c *checker) windows(ts time.Duration) {
	invNow := c.invokedNow()
	for i, g := range c.groups {
		done := c.doneBy(ts - g.stale)
		if g.window == 0 {
			c.tallyBetween(c.lo[i], nil, done)
			c.tallyBetween(c.hi[i], nil, invNow)
			continue
		}
		c.tallyBetween(c.lo[i], c.invokedBy(ts-(g.window-2*g.epoch)), done)
		c.tallyBetween(c.hi[i], c.doneBy(ts-g.stale-g.window-g.epoch), invNow)
	}
}

// bracket returns the [vmin, vmax] range of object o's true value.
func (c *checker) bracket(o int) (vmin, vmax uint64) {
	obj := c.objs[o]
	lo, hi := c.lo[obj.group], c.hi[obj.group]
	if obj.isMax {
		return lo.max[o], hi.max[o]
	}
	return lo.count[o], hi.count[o]
}

// value checks one value of object o read at ts (the read has returned).
func (c *checker) value(o int, x uint64, ts time.Duration) {
	c.windows(ts)
	c.verify(o, x)
}

// atMost checks that x does not exceed the largest value object o may
// have received, as bracketed by the last value call — a quantile answer
// rounds down to its bucket's lower boundary, so it can never exceed
// every observation.
func (c *checker) atMost(o int, x uint64) {
	c.checks++
	if limit := c.hi[c.objs[o].group].max[o]; x > limit {
		c.fail("%s quantile %d above every observed value (max %d)", c.objs[o].series, x, limit)
	}
}

func (c *checker) verify(o int, x uint64) {
	c.checks++
	vmin, vmax := c.bracket(o)
	if !c.objs[o].bounds.ContainsRange(vmin, vmax, x) {
		c.fail("%s = %d outside envelope %+v for true value in [%d, %d]", c.objs[o].series, x, c.objs[o].bounds, vmin, vmax)
	}
}

// exposition checks every tracked object's value in a Prometheus text
// scrape that started at ts and has just ended. A tracked series missing
// from the scrape is a failure too.
func (c *checker) exposition(text []byte, ts time.Duration) {
	clear(c.seen)
	for line := range bytes.Lines(text) {
		if len(line) == 0 || line[0] == '#' || bytes.IndexByte(line, '{') >= 0 {
			continue
		}
		sp := bytes.IndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		o, ok := c.series[string(line[:sp])]
		if !ok {
			continue
		}
		v, err := strconv.ParseUint(string(bytes.TrimSpace(line[sp+1:])), 10, 64)
		if err != nil {
			c.fail("unparsable sample %q", bytes.TrimSpace(line))
			continue
		}
		c.vals[o], c.seen[o] = v, true
	}
	c.windows(ts)
	for o := range c.objs {
		if !c.seen[o] {
			c.checks++
			c.fail("series %s missing from the scrape", c.objs[o].series)
			continue
		}
		c.verify(o, c.vals[o])
	}
}

// fail records one correctness violation; the first few are kept for the
// report.
func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.msgs) < 5 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}
