package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"approxobj"
)

// spanCap bounds one goroutine's span log; once full, later spans are
// dropped rather than grown into, so tracing never allocates mid-run.
const spanCap = 1 << 18

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Spans of one request share req; parent is the id
// of the enclosing span in the same log, or -1 for a root.
type span struct {
	name       string
	id, parent int32
	req        uint64
	start, end time.Duration
}

// spanLog is one goroutine's span buffer. A nil *spanLog records nothing,
// so untraced requests call the same code with no branches of their own.
type spanLog struct {
	epoch time.Time
	g     int
	spans []span
}

func (l *spanLog) begin(name string, parent int32, req uint64) int32 {
	if l == nil || len(l.spans) == cap(l.spans) {
		return -1
	}
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{name: name, id: id, parent: parent, req: req, start: time.Since(l.epoch)})
	return id
}

func (l *spanLog) end(id int32) {
	if l == nil || id < 0 {
		return
	}
	l.spans[id].end = time.Since(l.epoch)
}

// tracer is the traced variant of a run: objects report into a telemetry
// domain and each load goroutine keeps a span log. A nil *tracer is the
// untraced run.
type tracer struct {
	tel   *approxobj.Telemetry
	epoch time.Time
	logs  []*spanLog
}

func newTracer() *tracer {
	return &tracer{tel: approxobj.NewTelemetry(), epoch: time.Now()}
}

// log returns a fresh span log for load goroutine g (nil when untraced).
func (t *tracer) log(g int) *spanLog {
	if t == nil {
		return nil
	}
	l := &spanLog{epoch: t.epoch, g: g, spans: make([]span, 0, spanCap)}
	t.logs = append(t.logs, l)
	return l
}

// keptDomain returns the telemetry domain a build reports into: the
// tracer's for the instance a traced run keeps, none otherwise, so builds
// discarded after timing set-up never count in the traced meters.
func (t *tracer) keptDomain(kept bool) *approxobj.Telemetry {
	if t == nil || !kept {
		return nil
	}
	return t.tel
}

// durations returns the durations of every recorded span called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, l := range t.logs {
		for _, s := range l.spans {
			if s.name == name && s.end > 0 {
				out = append(out, float64(s.end-s.start))
			}
		}
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// meters reads the telemetry domain's runtime meters through SelfMetrics
// registered on a registry of their own, so the registry the workload
// scrapes is left as it is.
func (t *tracer) meters() (map[string]uint64, error) {
	reg := approxobj.NewRegistry()
	if err := reg.SelfMetrics(t.tel); err != nil {
		return nil, err
	}
	out := map[string]uint64{}
	for _, s := range reg.Snapshot() {
		out[s.Name] = s.Value
	}
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers adds the traced run's per-layer metrics to r: counts from the
// telemetry meters, normalized by the mutations and reads the workload
// issued, and self times from the spans. steps is the shared-memory step
// total of the workload's objects and mutations the mutations issued over
// the run, warm-up included, like the meters.
func (t *tracer) layers(r *result, steps, mutations uint64) error {
	m, err := t.meters()
	if err != nil {
		return err
	}
	hits, misses := float64(m["approx_runtime_readcache_hits"]), float64(m["approx_runtime_readcache_misses"])
	rotations := float64(m["approx_runtime_window_rotations"])
	muts := float64(mutations)
	r.layerMetric("prim.steps_per_op", "steps/op", ratio(float64(steps), muts))
	r.layerMetric("shard.buffer.flushes_per_op", "flushes/op", ratio(float64(m["approx_runtime_flushes"]), muts))
	r.layerMetric("shard.readcache.hit_ratio", "ratio", ratio(hits, hits+misses))
	r.layerMetric("shard.readcache.inline_refresh_per_read", "ratio", ratio(float64(m["approx_runtime_readcache_inline_refreshes"]), hits+misses))
	r.layerMetric("shard.readcache.refresh_peak_ns", "ns", float64(m["approx_runtime_refresh_ns_peak"]))
	r.infoMetric(&r.layer, "shard.window.rotations", "count", rotations)
	r.layerMetric("shard.window.rehomes_per_rotation", "ratio", ratio(float64(m["approx_runtime_rehomed_handles"]), rotations))
	r.infoMetric(&r.layer, "pool.tryfail", "count", float64(m["approx_runtime_pool_tryacquire_failures"]))

	acq, rel, req := t.durations("pool.acquire"), t.durations("pool.release"), t.durations("request")
	r.layerMetric("pool.acquire_ns", "ns", median(acq))
	r.layerMetric("pool.release_ns", "ns", median(rel))
	r.layerMetric("pool.share", "ratio", ratio(sum(acq)+sum(rel), sum(req)))
	snap, write := median(t.durations("registry.snapshot")), median(t.durations("expose.write"))
	r.layerMetric("registry.snapshot_us", "us", snap/1e3)
	r.layerMetric("expose.render_us", "us", max(0, write-snap)/1e3)
	return nil
}

// writeSpans appends every span of the run to path as JSON lines.
func (t *tracer) writeSpans(path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Workload  string `json:"workload"`
		Goroutine int    `json:"goroutine"`
		ID        int32  `json:"id"`
		Parent    int32  `json:"parent"`
		Req       uint64 `json:"req"`
		Name      string `json:"name"`
		StartNs   int64  `json:"start_ns"`
		EndNs     int64  `json:"end_ns"`
	}
	for _, l := range t.logs {
		for _, s := range l.spans {
			if err := enc.Encode(line{workload, l.g, s.id, s.parent, s.req, s.name, int64(s.start), int64(s.end)}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}
