// Command approxload is the repository's end-to-end benchmark: it loads
// the approxobj library the way a metrics-instrumented service does, checks
// every value the library returns against the operations it issued, and
// reports what a user of the library sees — request latency, write
// throughput, set-up time and memory — plus, in its traced variant, where
// that cost goes layer by layer.
//
// It is a module of its own, with its own go.mod, so the benchmark builds
// from its own directory and the library's module stays as it is; it
// imports the library from the repository root through a replace
// directive. Being a separate module, it is not part of the root's
// `go test ./...` or `go vet ./...`: run its tests from its directory.
// Run it from the repository root:
//
//	bash cmd/approxload/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
//
// run.sh builds the program from source into .bench_build/ and passes its
// arguments on. Inside cmd/approxload, `go run . -seed 1` runs all four
// workloads in one process, and `go test .` runs the unit tests and the
// smoke test, which runs every workload and the ledger briefly and holds
// the printed metrics to BENCHMARK.json.
//
// # Flags
//
//	-workload  ingest, scrape, query, service, or all (default)
//	-seed      seed of the generated inputs (default 1)
//	-seconds   length of the measured phase of one run (default 20)
//	-trace     1 runs the traced variant and reports the per-layer metrics
//	-spans     span file of the traced variant (implies -trace 1; default
//	           .bench_build/spans-<workload>.jsonl)
//
// Each metric is printed as "workload metric value unit", with the sample
// count n= next to every timing, and the last line of output is one JSON
// object {"correct", "attempted", "failed", "metrics"}. The process exits 1
// when any checked value was outside its envelope, and 2 on bad flags.
//
// # Load
//
// All load comes from two goroutines, one per core of the 2-core machine
// the benchmark was sized on; the main goroutine sets the phases and,
// once the load goroutines have stopped, counts allocations.
// Inputs — route choices, observed values, written values, which requests
// fail — are generated from -seed into fixed rings of 16384 entries before
// any object is built, so no RNG call sits in a timed region and the
// library receives only generated values. Each run builds the objects it
// loads first, on a quiet heap, leasing and reading through every pooled
// handle once so that no handle is built later by a load goroutine, then
// builds and discards 31 more to time set-up (setup_s is their median).
// It warms up for 2 s, and then measures for -seconds in ten equal
// windows. Throughputs and percentiles are read per window and the median
// window is reported, so a stall of a few seconds on a shared machine
// moves one window, not the result. A p99 whose windows hold too few
// samples (the scrape workload's) is read over the whole phase instead.
//
// Closed-loop requests are timed 1 in 16; every open-loop call is timed
// from when it was due, so a stall also counts against the calls queued
// behind it, and the generator's lateness is printed beside it. An open
// loop sleeps to within a tenth of its period of the due time and yields
// for the rest, so timer jitter does not enter the latencies. Latencies
// go into a preallocated sample slice (thinned evenly when full), never
// into the library's own Histogram: a change to the code under test must
// not also change the ruler, and the library's histogram rounds values by
// its accuracy factor, which would hide the very differences the
// benchmark exists to show.
//
// # Workloads
//
//	ingest   closed loop, 2 writers. Each request picks one of 16 routes,
//	         acquires that route's pooled counter, histogram and max
//	         register (Multiplicative(4)/(2)/(2), 4 shards, batch
//	         64/64/16, cumulative, uncached, no telemetry), does 8 Inc,
//	         8 Observe and 1 Write, and releases the three handles. One
//	         unscored scrape per second checks the values. Why: the write
//	         path (pool, handle, shard buffer and flush, core, prim) does
//	         almost all the work; read cache, window, registry and expose
//	         do almost none.
//	scrape   open loop, 2 goroutines. The registry holds 256 objects, 64
//	         of each kind (one slot, 4 shards, unbatched, uncached), with
//	         histograms prefilled to about 60 occupied buckets. A writer
//	         makes 100 pooled mutations every 1 ms on random objects; a
//	         scraper renders the registry with expose.WriteRegistry 100
//	         times a second. A request is one scrape. Why: registry,
//	         shard combine and expose dominate and the write path is
//	         light — the inverse of ingest.
//	query    closed loop, 1 reader + 1 writer on the same 3 objects (16
//	         shards, 1 ms read cache, batch 8, handles held for the whole
//	         run). A request is counter Read + histogram Quantile(0.99) +
//	         max-register Read. Why: the read cache does the work; the
//	         writer beside it makes a cache change that slows writes show
//	         in write_mops.
//	service  closed loop, 2 goroutines: 4 routes of ingest-shaped
//	         requests plus one Quantile(0.99) admission read each, on
//	         objects with a 2 s window of 4 epochs (40 rotations in a
//	         20 s run), a 1 ms read cache and telemetry, with SelfMetrics
//	         registered. The registry is scraped 10 times a second, open
//	         loop. The objects' background combiners compete with the two
//	         load goroutines for the two cores. Why: window rotation and
//	         rehoming, cache refresh, telemetry and self-metrics run only
//	         here, so their cost shows here and nowhere else.
//
// Every workload also carries one exact errors counter, incremented for
// the requests its input ring marks as failed (about 1 in 128).
//
// # Correctness
//
// Every scraped value, and in query one checked read request every
// 100 ms, is checked with Bounds.ContainsRange against the operations the
// benchmark itself issued: each load goroutine publishes how many of its
// requests it has invoked and completed, and the checker turns those
// positions into per-object counts and maxima by replaying the input
// rings. The lower end counts operations completed before the read began
// — Stale earlier for cached objects, and for windowed objects only those
// invoked within the window less two epochs of truncation skew — and the
// upper end operations invoked before the read returned. When the run is
// quiescent a final scrape requires the exact errors counter to equal the
// number of failed requests issued. Any violation is counted in "failed",
// sets "correct" to false and makes the process exit 1.
//
// # End-to-end metrics
//
// A request is the workload's own unit of work: a pooled request in
// ingest and service, a scrape in scrape, a read request in query. Every
// workload prints the same lines. Two of them are gates, in the JSON
// result; bound is the share of the parent's median by which a gate may
// worsen before a change counts as a regression.
//
//	metric                unit    better  bound  what
//	setup_s               s       lower   25%    median time to build and prefill the workload's objects
//	mem_per_object_bytes  B       lower   2%     heap a build retains, per object the workload registers
//	req_p50_ns            ns      lower   -      median request latency
//	req_p99_ns            ns      lower   -      99th-percentile request latency
//	write_mops            Mops/s  higher  -      mutations per second (see below)
//
// setup_s was specified with a bound of a tenth or 5 ms, whichever is
// larger; 5 ms is over a quarter of every workload's set-up time (1-17 ms),
// so it takes 25%.
//
// The timings of the load are printed with their sample counts, for
// comparing two builds in alternating runs, but are not gates: no bound a
// gate may take holds them on the machine the benchmark was sized on, a
// 2-vCPU shared virtual machine (Intel Xeon, 2.0 GHz). There the same
// workload ran up to 1.7 times slower for minutes at a time, and in two
// interleaved sets of ten 20 s runs per workload the spread between
// quartiles of every timing was 12-38%. The cause is outside the process:
// a loop with no library code that updates a 512 KB table varied by 20%
// between 2 s blocks, while a loop that stays in registers varied by 2%, so
// the noise is cache contention from other tenants, and no longer sample
// inside one run removes it. A run's p99 also follows how many of the
// virtual CPU's stalls it caught: stalls of up to 60 ms come several times
// a minute, and the scrape workload's p99 moved by half its median from one
// run to the next. Runs a minute apart agree far better than runs ten
// minutes apart, so a speed claim is judged on alternating runs of the two
// builds.
//
// write_mops counts completed mutations over wall time in the closed
// loops (ingest, query, service). The scrape workload's writer runs on a
// fixed schedule, so there it counts mutations over the time the writer's
// batches ran, leaving out its sleeps: that follows the cost of a
// mutation, where a rate over wall time would only read the schedule.
//
// Allocations are not a gate either. A bound is a share of the parent's
// median, so a gate must read above zero on every workload, and the query
// workload's read path allocates nothing by design. The library's own
// tests pin its allocation budgets (TestReadPathAllocationFree,
// TestPooledAcquireAllocations), and the traced variant reports
// allocs_per_op.
//
// A run also prints, for people: scrape latency and lateness in ingest and
// service, scrape and writer lateness in scrape, and read throughput
// (read_mops) in query.
//
// # Per-layer metrics
//
// The traced variant (-trace 1) splits the measured length in three: an
// untraced run of a quarter, a traced run of a quarter, and the layer
// ledger in the remaining half. The traced run attaches a telemetry domain
// to every object and records spans from the benchmark's own code around
// each call into a layer: one request in 64, and every scrape. Each span
// has a name, start, end, parent and request id; spans are kept in memory
// and written as JSON lines at exit. A layer's self time is its span's
// duration minus the part of it its child spans cover; for a request that
// is request minus pool.acquire, histogram.quantile, counter.inc,
// histogram.observe, maxreg.write, pool.release and errors.inc. Counts come
// from the library's own telemetry meters, read through SelfMetrics on a
// separate registry so the scraped registry is unchanged.
//
// The ledger times one kind of operation through each successive layer on
// a single goroutine, as ns/op (median of five chunks) and as a ratio over
// the layer below. Below, L marks a ledger row and T a traced-run figure;
// each layer names the end-to-end metric it should move and the workload
// where that shows (on the other workloads the prediction is no change).
// The timings named below are printed ones, not gates.
//
//	prim             L reg_write_ns, reg_read_ns, cas_ns; T steps_per_op
//	                 (shared-memory steps per mutation)
//	                 -> write_mops on ingest
//	core             L inc_ns, read_ns, inc_ratio (inc over prim.reg_write_ns)
//	                 -> req_p50_ns on scrape (each uncached combine reads
//	                 every shard); little effect on ingest at batch 64
//	shard.buffer     L inc_b1_ns, inc_b64_ns, observe_b64_ns, inc_b1_ratio
//	                 (over core.inc_ns); T flushes_per_op
//	                 -> write_mops and req_p50_ns on ingest
//	shard.combine    L read_s4_ns, read_s16_ns, quantile_s4_ns, s16_ratio
//	                 -> req_p50_ns and req_p99_ns on scrape
//	shard.readcache  L read_ns, quantile_ns, ratio (over
//	                 shard.combine.read_s16_ns); T hit_ratio,
//	                 inline_refresh_per_read, refresh_peak_ns
//	                 -> req_p50_ns, req_p99_ns and write_mops on query;
//	                 req_p99_ns on service (the inline refresh)
//	shard.window     L inc_ns, read_ns, inc_ratio, read_ratio (over their
//	                 cumulative rows); T rehomes_per_rotation
//	                 -> req_p99_ns on service
//	pool             L cycle_ns (empty acquire and release), held_inc_ns,
//	                 do_inc_ns, wrap_ratio (held_inc over
//	                 shard.buffer.inc_b64_ns); T acquire_ns and release_ns
//	                 (a request's three handles; release includes the
//	                 flush), share (acquire + release over the request)
//	                 -> req_p50_ns on ingest and service, and
//	                 allocs_per_op there
//	telemetry        L inc_ratio_s1/_s4, observe_ratio_s1/_s4 (on over off)
//	                 -> req_p50_ns on service
//	registry         L snapshot_ns_per_object (256 objects); T snapshot_us
//	                 -> req_p50_ns and req_p99_ns on scrape
//	expose           L render_ns_per_object (WriteRegistry minus a
//	                 Registry.Snapshot), ratio (over registry); T render_us
//	                 -> req_p50_ns and req_p99_ns on scrape
//	trace            T overhead_ratio: traced req_p50_ns over untraced,
//	                 same invocation, same length
//	allocs_per_op    heap allocations per request (per scrape in scrape),
//	                 counted over 1024 requests (16 scrapes) run untimed on
//	                 one goroutine after the untraced run's load stopped
//
// Every per-layer metric is lower-is-better except
// shard.readcache.hit_ratio. The traced variant also prints, for people
// only, shard.window.rotations and pool.tryfail.
package main
