package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1) // 1..1000
	}
	for _, c := range []struct {
		q      float64
		want   int64
		wantOK bool
	}{
		{0.50, 500, true},
		{0.99, 990, true},   // 10 samples beyond: reported
		{0.995, 995, false}, // 5 beyond: omitted
		{1.0, 1000, false},
	} {
		got, ok := percentile(sorted, c.q)
		if got != c.want || ok != c.wantOK {
			t.Errorf("percentile(1..1000, %v) = %d, %v; want %d, %v", c.q, got, ok, c.want, c.wantOK)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestSummarizeOmitsThinTails(t *testing.T) {
	s := newSampler(64)
	for i := range 50 {
		s.add(time.Duration(50 - i)) // unsorted on purpose
	}
	got := summarize(s)
	if got.n != 50 || got.p50 != 25 || !got.ok50 {
		t.Errorf("p50 of 1..50 = %d (ok %v, n %d); want 25, reported, n 50", got.p50, got.ok50, got.n)
	}
	if got.ok99 {
		t.Errorf("p99 of 50 samples reported (%d); fewer than %d lie beyond it", got.p99, minBeyond)
	}
}

func TestSamplerKeepsSpreadWhenFull(t *testing.T) {
	s := newSampler(8)
	for i := range 64 {
		s.add(time.Duration(i))
	}
	if len(s.ns) > 8 || s.stride != 8 {
		t.Fatalf("sampler holds %d samples at stride %d; want at most 8 at stride 8", len(s.ns), s.stride)
	}
	// The kept samples must cover the whole run, not only its start.
	if first, last := s.ns[0], s.ns[len(s.ns)-1]; first > 8 || last < 56 {
		t.Errorf("kept samples span %d..%d of 0..63; want them spread over the run", first, last)
	}
}
