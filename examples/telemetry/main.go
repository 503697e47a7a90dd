// Telemetry: a live monitoring endpoint over windowed approximate
// objects — the application domain the paper cites for approximate
// counting (Dice, Lev, Moir: "Scalable statistics counters", SPAA '13),
// grown into the full exposition pipeline, with the library watching
// itself: the objects run with a telemetry domain attached, and the
// runtime's own event counts (flushes, buffer hits, rotations, pool
// traffic) are registered as approximate objects in the same registry
// and scraped as approx_runtime_* series next to the user metrics.
//
// A simulated server handles requests on many worker goroutines. Every
// request bumps a windowed per-endpoint counter and records its latency
// into a windowed histogram (rate and p99 over the last few seconds,
// not since boot), a max register tracks the peak queue depth, and a
// snapshot object tracks per-worker progress. The whole registry is
// served live over HTTP in Prometheus text format by expose.Handler
// while a scraper polls it under full write churn — every scrape is
// validated with expose.Lint (the process exits nonzero on a malformed
// scrape, so CI can run this example as a smoke test) and carries the
// objects' deterministic envelopes as _bound companion series. A
// sampled trace hook counts flush/rotation/acquire callbacks, and
// expose.DebugHandler serves the operator surface: the self-metrics
// scrape, pprof, and an on-demand execution trace. After the registry
// is closed the endpoint keeps answering with the frozen window (the
// post-Close contract).
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"approxobj"
	"approxobj/expose"
)

const (
	workers      = 16
	window       = 2 * time.Second // rate/p99 over the last 2s ...
	epochs       = 4               // ... in 4 epochs of 500ms
	churnFor     = 3 * time.Second
	scrapeEvery  = 500 * time.Millisecond
	maxLatencyUs = 1 << 16
)

func main() {
	reg := approxobj.NewRegistry()
	procs := approxobj.WithProcs(workers)

	// The telemetry domain: every object below reports its runtime
	// events here, and a sampled trace hook (1 in 2^4 events) counts the
	// callbacks it sees per event kind.
	var traced [4]atomic.Uint64
	tel := approxobj.NewTelemetry(approxobj.WithTraceHook(
		func(ev approxobj.TraceEvent, slot int, value uint64) {
			traced[ev].Add(1)
		}, 4))
	instrumented := approxobj.WithTelemetry(tel)

	requests, err := reg.Counter("http.requests", procs, instrumented,
		approxobj.WithAccuracy(approxobj.Multiplicative(5)), // sqrt(17) ~ 4.2
		approxobj.WithShards(4), approxobj.WithBatch(8),
		approxobj.WithWindow(window, epochs))
	if err != nil {
		log.Fatal(err)
	}
	latency, err := reg.HistogramObject("latency_us", procs, instrumented,
		approxobj.WithAccuracy(approxobj.Multiplicative(2)),
		approxobj.WithBound(maxLatencyUs),
		approxobj.WithShards(4), approxobj.WithBatch(8),
		approxobj.WithWindow(window, epochs))
	if err != nil {
		log.Fatal(err)
	}
	peak, err := reg.MaxRegister("peak.queue.depth", procs, instrumented,
		approxobj.WithWindow(window, epochs))
	if err != nil {
		log.Fatal(err)
	}
	progress, err := reg.SnapshotObject("worker.progress", procs, instrumented)
	if err != nil {
		log.Fatal(err)
	}
	// Surface the domain's meters as registry objects: the next scrape
	// carries approx_runtime_* series (with _bound companions on the
	// batched ones) next to the user metrics they describe.
	if err := reg.SelfMetrics(tel); err != nil {
		log.Fatal(err)
	}

	// The live endpoints: the scrape on /metrics, the operator surface
	// (self-metrics scrape, pprof, on-demand execution trace) under
	// /debug/.
	mux := http.NewServeMux()
	mux.Handle("/metrics", expose.Handler(reg))
	mux.Handle("/debug/", expose.DebugHandler(reg))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	url := "http://" + ln.Addr().String() + "/metrics"
	debugURL := "http://" + ln.Addr().String() + "/debug"
	fmt.Printf("serving %s for %v under %d-worker churn\n\n", url, churnFor, workers)

	// Churn: workers hammer every object until told to stop.
	var (
		wg    sync.WaitGroup
		stop  atomic.Bool
		depth atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(slot)))
			rh, releaseR := requests.Acquire()
			defer releaseR()
			lh, releaseL := latency.Acquire()
			defer releaseL()
			ph, releaseP := peak.Acquire()
			defer releaseP()
			sh, releaseS := progress.Acquire()
			defer releaseS()
			var served uint64
			for !stop.Load() {
				d := depth.Add(1)
				rh.Inc()
				lh.Observe(uint64(rng.ExpFloat64() * 800)) // ~exponential latencies, tail past 10ms
				ph.Write(uint64(d))
				served++
				sh.Update(served)
				depth.Add(-1)
				if served%256 == 0 {
					time.Sleep(time.Millisecond) // keep the scraper competitive
				}
			}
		}(w)
	}

	// An execution-trace capture bracketing part of the churn, through
	// the debug endpoint's start/stop pair.
	mustGet(debugURL + "/trace/start")

	// Scraper: polls the live endpoint while the workers churn. Every
	// scrape must lint; the last one is printed.
	var last string
	deadline := time.Now().Add(churnFor)
	for n := 1; time.Now().Before(deadline); n++ {
		time.Sleep(scrapeEvery)
		last = mustGet(url)
		if err := expose.Lint(last); err != nil {
			log.Fatalf("scrape %d failed lint: %v", n, err)
		}
		fmt.Printf("scrape %d: %d bytes, %d series\n", n, len(last), strings.Count(last, "\n")-strings.Count(last, "#"))
	}
	capture := mustGet(debugURL + "/trace/stop")
	fmt.Printf("\nexecution trace captured via %s/trace/{start,stop}: %d bytes\n", debugURL, len(capture))

	// The debug endpoint's own scrape must lint too.
	if err := expose.Lint(mustGet(debugURL + "/metrics")); err != nil {
		log.Fatalf("debug scrape failed lint: %v", err)
	}

	stop.Store(true)
	wg.Wait()

	fmt.Println("\nlast scrape under churn (requests, p99 inputs, and their envelopes):")
	printMatching(last, "http_requests", "latency_us_bucket{le=\"+Inf\"}", "latency_us_count", "peak_queue_depth", "_bound")

	fmt.Println("\nthe library watching itself (approx_runtime_* self-metrics):")
	printMatching(last, "approx_runtime_")

	fmt.Println("\nsampled trace-hook callbacks (1 in 16 events):")
	for _, ev := range []approxobj.TraceEvent{approxobj.TraceFlush, approxobj.TraceRefresh, approxobj.TraceRotation, approxobj.TraceAcquire} {
		fmt.Printf("  %-8s %d\n", ev, traced[ev].Load())
	}

	// Close freezes the windows and stops every rotator; the endpoint
	// keeps serving the last value.
	reg.Close()
	frozen := mustGet(url)
	if err := expose.Lint(frozen); err != nil {
		log.Fatalf("post-Close scrape failed lint: %v", err)
	}
	fmt.Println("\nafter Close (frozen window, still serving):")
	printMatching(frozen, "http_requests_total", "latency_us_count")
	srv.Close()
}

// mustGet fetches a URL and returns the body, exiting on any error or
// non-200 status (this example doubles as a CI smoke test).
func mustGet(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	return string(body)
}

// printMatching prints the sample lines whose metric name contains any
// of the given substrings (comments excluded).
func printMatching(text string, subs ...string) {
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		for _, sub := range subs {
			if strings.Contains(line, sub) {
				fmt.Println("  " + line)
				break
			}
		}
	}
}
