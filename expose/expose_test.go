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
