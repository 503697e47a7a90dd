package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is the number of samples that must lie beyond a percentile
// for it to be reported: a tail percentile resting on fewer samples is
// mostly noise, so it is omitted rather than printed.
const minBeyond = 10

// sampler is a preallocated latency sample slice. add records every
// stride-th call; when the slice fills it keeps every second sample and
// doubles the stride, so memory stays fixed and the kept samples stay
// spread evenly over the whole run instead of covering only its start.
type sampler struct {
	ns     []int64
	stride uint64
	skip   uint64
}

func newSampler(capacity int) *sampler {
	return &sampler{ns: make([]int64, 0, capacity), stride: 1}
}

func (s *sampler) add(d time.Duration) {
	if s.skip++; s.skip < s.stride {
		return
	}
	s.skip = 0
	if len(s.ns) == cap(s.ns) {
		half := len(s.ns) / 2
		for i := range half {
			s.ns[i] = s.ns[2*i+1]
		}
		s.ns = s.ns[:half]
		s.stride *= 2
	}
	s.ns = append(s.ns, int64(d))
}

// percentile returns the exact q-quantile of sorted by nearest rank: the
// smallest sample with at least a q share of the samples at or below it.
// ok is false when fewer than minBeyond samples lie above it.
func percentile(sorted []int64, q float64) (v int64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	idx = max(0, min(idx, n-1))
	return sorted[idx], n-1-idx >= minBeyond
}

// timing is the summary of one latency sample set.
type timing struct {
	n        int
	p50, p99 int64
	ok50     bool
	ok99     bool
}

// summarize sorts the merged samples of every sampler and reads their
// exact p50 and p99.
func summarize(ss ...*sampler) timing {
	var all []int64
	for _, s := range ss {
		all = append(all, s.ns...)
	}
	slices.Sort(all)
	t := timing{n: len(all)}
	t.p50, t.ok50 = percentile(all, 0.50)
	t.p99, t.ok99 = percentile(all, 0.99)
	return t
}

// windowTiming summarizes windowed latencies: p50 is the median of the
// windows' p50s, and p99 the median of their p99s when every window has
// enough samples beyond its p99 — otherwise it is taken over the pooled
// samples of the whole phase. n counts every sample.
func windowTiming(ws ...*windowed) timing {
	var all []*sampler
	var p50s, p99s []float64
	tails := true
	for w := range measureWindows {
		var win []*sampler
		for _, x := range ws {
			win = append(win, x.lat[w])
		}
		all = append(all, win...)
		t := summarize(win...)
		p50s = append(p50s, float64(t.p50))
		p99s = append(p99s, float64(t.p99))
		tails = tails && t.ok99
	}
	t := summarize(all...)
	t.p50 = int64(median(p50s))
	if tails {
		t.p99 = int64(median(p99s))
	}
	return t
}

// median returns the median of xs (the mean of the middle two for an
// even count), or 0 for an empty slice. xs is reordered.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	slices.Sort(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
