package expose

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"approxobj"
)

// validateText checks that body is well-formed Prometheus text format
// via the exported Lint (the CI scrape smoke uses the same checker).
func validateText(t *testing.T, body string) {
	t.Helper()
	if err := Lint(body); err != nil {
		t.Fatalf("%v\nin body:\n%s", err, body)
	}
}

func buildRegistry(t *testing.T) *approxobj.Registry {
	t.Helper()
	reg := approxobj.NewRegistry()
	c, err := reg.Counter("http.requests", approxobj.WithProcs(4), approxobj.WithShards(2), approxobj.WithBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	m, err := reg.MaxRegister("peak-queue-depth", approxobj.WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	s, err := reg.SnapshotObject("worker progress", approxobj.WithProcs(3))
	if err != nil {
		t.Fatal(err)
	}
	h, err := reg.HistogramObject("latency_us", approxobj.WithProcs(4),
		approxobj.WithAccuracy(approxobj.Multiplicative(2)), approxobj.WithBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	c.Do(func(h approxobj.CounterHandle) {
		for i := 0; i < 10; i++ {
			h.Inc()
		}
	})
	m.Do(func(h approxobj.MaxRegisterHandle) { h.Write(42) })
	s.Do(func(h approxobj.SnapshotHandle) { h.Update(7) })
	h.Do(func(hh approxobj.HistogramHandle) {
		for _, v := range []uint64{1, 5, 5, 100, 10_000} {
			hh.Observe(v)
		}
	})
	return reg
}

func TestWriteRegistryFormat(t *testing.T) {
	reg := buildRegistry(t)
	var b strings.Builder
	if err := WriteRegistry(&b, reg); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	validateText(t, body)

	for _, want := range []string{
		"# TYPE http_requests_total counter",
		"http_requests_total 10",
		"# TYPE peak_queue_depth gauge",
		"peak_queue_depth 42",
		"worker_progress 7",
		"# TYPE latency_us histogram",
		"latency_us_count 5",
		`http_requests_bound{term="buffer"}`,
		`latency_us_bound{term="mult"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("output missing %q:\n%s", want, body)
		}
	}
}

// TestHandlerUnderConcurrentWriters scrapes the HTTP handler while
// writers churn every object; each scrape must be well-formed.
func TestHandlerUnderConcurrentWriters(t *testing.T) {
	reg := buildRegistry(t)
	c, _ := reg.Counter("http.requests", approxobj.WithProcs(4), approxobj.WithShards(2), approxobj.WithBatch(4))
	h, _ := reg.HistogramObject("latency_us", approxobj.WithProcs(4),
		approxobj.WithAccuracy(approxobj.Multiplicative(2)), approxobj.WithBatch(8))

	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Do(func(h approxobj.CounterHandle) { h.Inc() })
				h.Do(func(hh approxobj.HistogramHandle) { hh.Observe(17) })
			}
		}()
	}
	for i := 0; i < 20; i++ {
		resp, err := srv.Client().Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
			t.Errorf("content type %q lacks version=0.0.4", ct)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		validateText(t, string(body))
	}
	close(stop)
	wg.Wait()
}

// TestEmptyWindowedHistogram checks the zero-observation window: a
// windowed histogram that has never been observed must still render a
// valid histogram (one +Inf bucket at 0) plus its window bound term.
func TestEmptyWindowedHistogram(t *testing.T) {
	reg := approxobj.NewRegistry()
	if _, err := reg.HistogramObject("empty", approxobj.WithProcs(2),
		approxobj.WithAccuracy(approxobj.Multiplicative(2)),
		approxobj.WithWindow(time.Minute, 6)); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	var b strings.Builder
	if err := WriteRegistry(&b, reg); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	validateText(t, body)
	for _, want := range []string{
		`empty_bucket{le="+Inf"} 0`,
		"empty_sum 0",
		"empty_count 0",
		`empty_bound{term="window_seconds"} 10`, // 60s / 6 epochs
	} {
		if !strings.Contains(body, want) {
			t.Errorf("output missing %q:\n%s", want, body)
		}
	}
}

// TestSaturatedHistogramScrape pins the bucket series of a histogram
// whose count saturates: MaxUint64 observations of 1 and two of 1000
// must export cumulative counts that never fall, ending at the
// saturated Count, so the scrape stays lintable.
func TestSaturatedHistogramScrape(t *testing.T) {
	reg := approxobj.NewRegistry()
	h, err := reg.HistogramObject("sat", approxobj.WithAccuracy(approxobj.Multiplicative(2)))
	if err != nil {
		t.Fatal(err)
	}
	h.Do(func(hh approxobj.HistogramHandle) {
		hh.ObserveN(1, ^uint64(0))
		hh.ObserveN(1000, 2)
	})
	d := reg.Snapshot()[0].Histogram
	var prev uint64
	for _, b := range d.Buckets {
		if b.CumulativeCount < prev {
			t.Fatalf("bucket le=%d: cumulative count %d fell below %d", b.UpperBound, b.CumulativeCount, prev)
		}
		prev = b.CumulativeCount
	}
	if prev != d.Count || d.Count != ^uint64(0) {
		t.Errorf("last cumulative count %d, Count %d, want both MaxUint64", prev, d.Count)
	}
	var b strings.Builder
	if err := WriteRegistry(&b, reg); err != nil {
		t.Fatal(err)
	}
	validateText(t, b.String())
}

// TestRandomizedCounterDeltaBound checks the accuracy plane's new axis
// on the wire: a Randomized(k, delta) counter must export its failure
// probability as a _bound{term="delta"} gauge, summarize it in the HELP
// line, and never render as "(exact)" — the whole point of Delta is
// that a scrape can tell a probabilistic envelope from a deterministic
// one.
func TestRandomizedCounterDeltaBound(t *testing.T) {
	reg := approxobj.NewRegistry()
	c, err := reg.Counter("flips", approxobj.WithProcs(2),
		approxobj.WithAccuracy(approxobj.Randomized(2, 0.25)))
	if err != nil {
		t.Fatal(err)
	}
	c.Do(func(h approxobj.CounterHandle) { h.Inc() })
	var b strings.Builder
	if err := WriteRegistry(&b, reg); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	validateText(t, body)
	for _, want := range []string{
		"# TYPE flips_total counter",
		`flips_bound{term="delta"} 0.25`,
		"delta=0.25)", // the HELP envelope note carries the term too
	} {
		if !strings.Contains(body, want) {
			t.Errorf("output missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "(exact)") {
		t.Errorf("randomized counter rendered as exact:\n%s", body)
	}
}

// TestScrapeAfterClose renders the registry after Close: windowed
// objects freeze and the scrape still serves the last values.
func TestScrapeAfterClose(t *testing.T) {
	reg := approxobj.NewRegistry()
	c, err := reg.Counter("reqs", approxobj.WithProcs(2), approxobj.WithWindow(time.Hour, 4))
	if err != nil {
		t.Fatal(err)
	}
	c.Do(func(h approxobj.CounterHandle) { h.Inc(); h.Inc(); h.Inc() })
	reg.Close()
	var b strings.Builder
	if err := WriteRegistry(&b, reg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "reqs_total 3") {
		t.Errorf("post-Close scrape lost the value:\n%s", b.String())
	}
	validateText(t, b.String())
}

// TestSanitizedNameCollision registers names that collide after
// sanitization; the scrape must disambiguate them (first keeps the
// name, later ones get _2, _3...) instead of emitting two families
// under one metric name — which Lint now rejects as a double TYPE.
func TestSanitizedNameCollision(t *testing.T) {
	reg := approxobj.NewRegistry()
	a, err := reg.Counter("api.requests", approxobj.WithProcs(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := reg.Counter("api_requests", approxobj.WithProcs(1))
	if err != nil {
		t.Fatal(err)
	}
	c, err := reg.Counter("api-requests", approxobj.WithProcs(1))
	if err != nil {
		t.Fatal(err)
	}
	a.Do(func(h approxobj.CounterHandle) { h.Inc() })
	b.Do(func(h approxobj.CounterHandle) { h.Inc(); h.Inc() })
	c.Do(func(h approxobj.CounterHandle) { h.Inc(); h.Inc(); h.Inc() })

	var sb strings.Builder
	if err := WriteRegistry(&sb, reg); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	validateText(t, body)
	for _, want := range []string{
		"api_requests_total 1",
		"api_requests_2_total 2",
		"api_requests_3_total 3",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("output missing %q:\n%s", want, body)
		}
	}
}

// TestCollisionAcrossKindSuffix pins the suffix-aware case: a gauge
// named "x" and a counter named "x" would share the x_bound family and,
// reversed, a counter "x" and an explicit "x_total" would share
// x_total. Disambiguation must see through the kind suffix.
func TestCollisionAcrossKindSuffix(t *testing.T) {
	reg := approxobj.NewRegistry()
	if _, err := reg.Counter("jobs", approxobj.WithProcs(1)); err != nil {
		t.Fatal(err)
	}
	// Explicitly-suffixed counter landing on the first counter's family.
	if _, err := reg.Counter("jobs_total", approxobj.WithProcs(1)); err != nil {
		t.Fatal(err)
	}
	// A different kind on the first counter's base name.
	if _, err := reg.MaxRegister("jobs", approxobj.WithProcs(1), approxobj.WithBatch(4)); err == nil {
		// Same registry name is rejected at registration (kind mismatch);
		// use a name that only collides after sanitization.
		t.Fatal("expected kind-mismatch error for duplicate registry name")
	}
	if _, err := reg.MaxRegister("jobs.", approxobj.WithProcs(1), approxobj.WithBatch(4)); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := WriteRegistry(&sb, reg); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	validateText(t, body)
	// "jobs" emits jobs_total; "jobs_total" must move off that family;
	// "jobs." sanitizes to jobs_ (no collision — underscore is kept).
	if !strings.Contains(body, "# TYPE jobs_total counter") {
		t.Errorf("first counter lost its family:\n%s", body)
	}
	if !strings.Contains(body, "# TYPE jobs_total_2_total counter") {
		t.Errorf("suffixed counter not disambiguated:\n%s", body)
	}
}

// goldenScrape is WriteRegistry's output for goldenRegistry. The
// registry's scrape is valid, so disambiguation renames nothing: the
// counter "latency_count" keeps latency_count_total beside the
// histogram "latency", whose latency_count sample it does not share.
const goldenScrape = `# HELP requests_total approxobj counter "requests": incremented count (approximate: buffer=6)
# TYPE requests_total counter
requests_total 9
# HELP requests_bound nonzero accuracy-envelope terms of requests (see approxobj.Bounds)
# TYPE requests_bound gauge
requests_bound{term="buffer"} 6
# HELP latency approxobj histogram "latency": observed value distribution (approximate: mult=2)
# TYPE latency histogram
latency_bucket{le="1"} 1
latency_bucket{le="3"} 3
latency_bucket{le="63"} 4
latency_bucket{le="1023"} 5
latency_bucket{le="+Inf"} 5
latency_sum 549
latency_count 5
# HELP latency_bound nonzero accuracy-envelope terms of latency (see approxobj.Bounds)
# TYPE latency_bound gauge
latency_bound{term="mult"} 2
# HELP latency_count_total approxobj counter "latency_count": incremented count (exact)
# TYPE latency_count_total counter
latency_count_total 2
# HELP queue_depth approxobj max register "queue.depth": high-water mark (exact)
# TYPE queue_depth gauge
queue_depth 17
# HELP progress approxobj snapshot "progress": component sum (exact)
# TYPE progress gauge
progress 5
`

// goldenRegistry registers one object of each kind, with a histogram
// "latency" beside a counter "latency_count", and gives each a fixed
// value.
func goldenRegistry(t *testing.T) *approxobj.Registry {
	t.Helper()
	reg := approxobj.NewRegistry()
	req, err := reg.Counter("requests", approxobj.WithProcs(2), approxobj.WithShards(2), approxobj.WithBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	lat, err := reg.HistogramObject("latency", approxobj.WithProcs(2),
		approxobj.WithAccuracy(approxobj.Multiplicative(2)), approxobj.WithBound(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	lc, err := reg.Counter("latency_count", approxobj.WithProcs(1))
	if err != nil {
		t.Fatal(err)
	}
	q, err := reg.MaxRegister("queue.depth", approxobj.WithProcs(1))
	if err != nil {
		t.Fatal(err)
	}
	p, err := reg.SnapshotObject("progress", approxobj.WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	req.Do(func(h approxobj.CounterHandle) {
		for range 9 {
			h.Inc()
		}
	})
	lat.Do(func(h approxobj.HistogramHandle) {
		for _, v := range []uint64{1, 3, 3, 40, 700} {
			h.Observe(v)
		}
	})
	lc.Do(func(h approxobj.CounterHandle) { h.Inc(); h.Inc() })
	q.Do(func(h approxobj.MaxRegisterHandle) { h.Write(17) })
	p.Do(func(h approxobj.SnapshotHandle) { h.Update(5) })
	return reg
}

// TestWriteRegistryGolden pins a valid registry's scrape byte for byte.
func TestWriteRegistryGolden(t *testing.T) {
	var b strings.Builder
	if err := WriteRegistry(&b, goldenRegistry(t)); err != nil {
		t.Fatal(err)
	}
	validateText(t, b.String())
	if b.String() != goldenScrape {
		t.Errorf("scrape differs from the golden text:\n%s\nwant:\n%s", b.String(), goldenScrape)
	}
}

// TestCollisionThroughDerivedSeries registers objects whose families
// would share a series name: a batched counter's _bound family, or a
// histogram's _count and _sum samples. The later object must be
// renamed, in either registration order, and the scrape must lint.
func TestCollisionThroughDerivedSeries(t *testing.T) {
	counter := func(name string, opts ...approxobj.Option) func(*approxobj.Registry) error {
		return func(reg *approxobj.Registry) error { _, err := reg.Counter(name, opts...); return err }
	}
	gauge := func(name string) func(*approxobj.Registry) error {
		return func(reg *approxobj.Registry) error { _, err := reg.MaxRegister(name); return err }
	}
	snapshot := func(name string) func(*approxobj.Registry) error {
		return func(reg *approxobj.Registry) error { _, err := reg.SnapshotObject(name); return err }
	}
	histogram := func(name string) func(*approxobj.Registry) error {
		return func(reg *approxobj.Registry) error {
			_, err := reg.HistogramObject(name, approxobj.WithAccuracy(approxobj.Multiplicative(2)))
			return err
		}
	}
	batched := []approxobj.Option{approxobj.WithProcs(2), approxobj.WithBatch(4)}
	for _, tc := range []struct {
		name string
		reg  []func(*approxobj.Registry) error
		want []string
	}{
		{"bound-then-gauge", []func(*approxobj.Registry) error{counter("x", batched...), gauge("x_bound")},
			[]string{"# TYPE x_total counter", "# TYPE x_bound gauge", "# TYPE x_bound_2 gauge"}},
		{"gauge-then-bound", []func(*approxobj.Registry) error{gauge("x_bound"), counter("x", batched...)},
			[]string{"# TYPE x_bound gauge", "# TYPE x_2_total counter", "# TYPE x_2_bound gauge"}},
		{"histogram-then-gauge", []func(*approxobj.Registry) error{histogram("h"), gauge("h_count")},
			[]string{"# TYPE h histogram", "# TYPE h_count_2 gauge"}},
		{"gauge-then-histogram", []func(*approxobj.Registry) error{gauge("h_count"), histogram("h")},
			[]string{"# TYPE h_count gauge", "# TYPE h_2 histogram"}},
		{"histogram-then-snapshot", []func(*approxobj.Registry) error{histogram("h"), snapshot("h_sum")},
			[]string{"# TYPE h histogram", "# TYPE h_sum_2 gauge"}},
		{"histogram-then-histogram", []func(*approxobj.Registry) error{histogram("h"), histogram("h_bucket")},
			[]string{"# TYPE h histogram", "# TYPE h_bucket_2 histogram"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := approxobj.NewRegistry()
			for _, add := range tc.reg {
				if err := add(reg); err != nil {
					t.Fatal(err)
				}
			}
			var b strings.Builder
			if err := WriteRegistry(&b, reg); err != nil {
				t.Fatal(err)
			}
			body := b.String()
			validateText(t, body)
			for _, want := range tc.want {
				if !strings.Contains(body, want) {
					t.Errorf("output missing %q:\n%s", want, body)
				}
			}
		})
	}
}

// TestLintRejectsSharedName feeds Lint scrapes in which two families
// claim one name, as unrenamed objects would render them: a histogram
// "h" beside a gauge "h_count" (both orders) or a snapshot "h_sum", and
// a gauge or a histogram named like one of h's samples. Each must be
// rejected.
func TestLintRejectsSharedName(t *testing.T) {
	const hist = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n"
	for name, body := range map[string]string{
		"histogram-then-gauge":    hist + "# TYPE h_count gauge\nh_count 5\n",
		"gauge-then-histogram":    "# TYPE h_count gauge\nh_count 5\n" + hist,
		"histogram-then-snapshot": hist + "# TYPE h_sum gauge\nh_sum 5\n",
		"sample-named-family":     "# TYPE h_bucket gauge\nh_bucket 5\n" + hist,
		"histogram-named-sample": hist + "# TYPE h_bucket histogram\nh_bucket_bucket{le=\"+Inf\"} 1\n" +
			"h_bucket_sum 1\nh_bucket_count 1\n",
	} {
		err := Lint(body)
		if err == nil || !strings.Contains(err.Error(), "claimed by families") {
			t.Errorf("%s: Lint = %v, want a name claimed by two families", name, err)
		}
	}
}

// TestSelfMetricsRender registers a telemetry domain's meters and
// checks the scrape: approx_runtime_* series appear, the batched
// meters carry a _bound{term="buffer"} companion, and the whole body
// lints.
func TestSelfMetricsRender(t *testing.T) {
	reg := approxobj.NewRegistry()
	tel := approxobj.NewTelemetry()
	c, err := reg.Counter("work", approxobj.WithProcs(2), approxobj.WithBatch(8),
		approxobj.WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.SelfMetrics(tel); err != nil {
		t.Fatal(err)
	}
	c.Do(func(h approxobj.CounterHandle) {
		for i := 0; i < 100; i++ {
			h.Inc()
		}
	})

	var sb strings.Builder
	if err := WriteRegistry(&sb, reg); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	validateText(t, body)
	for _, want := range []string{
		"# TYPE approx_runtime_flushes_total counter",
		"# TYPE approx_runtime_buffer_hits_total counter",
		`approx_runtime_buffer_hits_bound{term="buffer"}`,
		"# TYPE approx_runtime_refresh_ns_peak gauge",
		"# TYPE approx_runtime_resident_bytes gauge",
		"approx_runtime_arena_rows_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("output missing %q:\n%s", want, body)
		}
	}
	if !strings.Contains(body, "approx_runtime_pool_acquires_total 1") {
		t.Errorf("pool acquire not counted:\n%s", body)
	}
}

// TestDebugHandler exercises the debug endpoint: the metrics route
// serves a lintable scrape, pprof answers, and the trace start/stop
// pair enforces its one-capture state machine with 409s.
func TestDebugHandler(t *testing.T) {
	reg := buildRegistry(t)
	srv := httptest.NewServer(DebugHandler(reg))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/debug/metrics"); code != 200 {
		t.Fatalf("/debug/metrics: %d", code)
	} else {
		validateText(t, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline: %d", code)
	}
	if code, _ := get("/debug/trace/stop"); code != 409 {
		t.Errorf("stop without start: got %d, want 409", code)
	}
	if code, _ := get("/debug/trace/start"); code != 200 {
		t.Fatalf("trace start: %d", code)
	}
	if code, _ := get("/debug/trace/start"); code != 409 {
		t.Errorf("double start: got %d, want 409", code)
	}
	if code, body := get("/debug/trace/stop"); code != 200 {
		t.Errorf("trace stop: %d", code)
	} else if len(body) == 0 {
		t.Error("trace stop returned an empty capture")
	}
	if code, _ := get("/debug/trace/start"); code != 200 {
		t.Errorf("restart after stop: %d", code)
	}
	if code, _ := get("/debug/trace/stop"); code != 200 {
		t.Errorf("second stop: %d", code)
	}
}

func TestSanitizeName(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"http.requests", "http_requests"},
		{"peak-queue-depth", "peak_queue_depth"},
		{"already_ok:colons", "already_ok:colons"},
		{"9lives", "_9lives"},
		{"", "_"},
		{"sp ace", "sp_ace"},
	} {
		if got := SanitizeName(tc.in); got != tc.want {
			t.Errorf("SanitizeName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
