// Package expose renders a Registry in the Prometheus text exposition
// format (version 0.0.4), turning the package's approximate objects into
// a scrape endpoint: Handler serves a live snapshot on every request,
// and WriteRegistry renders one into any io.Writer for push pipelines
// and tests.
//
// # Metric-name mapping
//
// Registered names map to metric names by sanitization — every byte
// outside [a-zA-Z0-9_:] becomes '_', and a leading digit gets a '_'
// prefix — followed by a kind-dependent suffix:
//
//	Counter      <name>_total                     TYPE counter
//	MaxRegister  <name>                           TYPE gauge
//	Snapshot     <name>                           TYPE gauge (component sum)
//	Histogram    <name>_bucket{le="..."},         TYPE histogram
//	             <name>_sum, <name>_count
//
// The _total suffix is added only when the sanitized name does not
// already end in it. Histogram buckets are cumulative at the upper
// boundary of each occupied bucket, with an explicit le="+Inf" bucket
// equal to the observation count (an unbounded layout's saturated last
// bucket renders as +Inf directly), so an empty windowed histogram
// still exposes a valid series: one le="+Inf" bucket at 0. Registered
// names that collide after sanitization (e.g. "a.b" and "a_b"), or
// whose families would share a series name (a histogram "h" emits
// h_count, so a gauge "h_count" beside it collides), are disambiguated
// in registration order: the first keeps the sanitized name, later
// ones render with a _2, _3, ... suffix, so one scrape never emits two
// families under the same metric name or sample name.
//
// # Accuracy annotations
//
// Every value this package's objects report is approximate within a
// deterministic envelope (see approxobj.Bounds), and a scrape that
// silently drops the envelope misrepresents the value. Each object's
// nonzero envelope terms are therefore exported as a companion gauge
// family
//
//	<name>_bound{term="mult"|"add"|"buffer"|"stale_seconds"|"window_seconds"|"delta"}
//
// where <name> is the sanitized name without kind suffixes: mult is the
// multiplicative factor (emitted when > 1), add and buffer the
// additive and buffered-mutation slacks in the value/rank domain,
// stale_seconds / window_seconds the read-staleness and epoch-skew
// windows in seconds, and delta the envelope's failure probability —
// nonzero only for randomized-accuracy objects, whose values sit in the
// envelope with probability >= 1-delta rather than on every schedule
// (such objects are never rendered as exact). The envelope is also
// summarized in the metric's HELP line, so a human reading the endpoint
// sees the contract next to the value.
package expose

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"approxobj"
)

// Handler returns an http.Handler that serves reg in the Prometheus
// text exposition format. Every request takes a fresh
// Registry.Snapshot — one consistent read per object — so concurrent
// writers never block a scrape for more than one object read.
func Handler(reg *approxobj.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// The snapshot is taken before the first byte is written, so a
		// mid-render failure cannot interleave two scrapes' values.
		var b strings.Builder
		if err := WriteRegistry(&b, reg); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		io.WriteString(w, b.String())
	})
}

// WriteRegistry renders one Registry.Snapshot of reg into w in the
// Prometheus text exposition format, in registration order. Names that
// collide after sanitization or through a derived series name are
// disambiguated with _2, _3, ... suffixes (see the package comment). It
// returns the first write error.
func WriteRegistry(w io.Writer, reg *approxobj.Registry) error {
	reserved, emitted := map[string]bool{}, map[string]bool{}
	for _, s := range reg.Snapshot() {
		// ObjectSnapshot.Bounds narrows a histogram's Mult to 1 (counts
		// never round); restore the bucket layout's rounding factor for
		// the bucket series and its annotations.
		if s.Histogram != nil && s.Histogram.Mult > s.Bounds.Mult {
			s.Bounds.Mult = s.Histogram.Mult
		}
		if err := writeObject(w, disambiguate(SanitizeName(s.Name), s, reserved, emitted), s); err != nil {
			return err
		}
	}
	return nil
}

// disambiguate claims a unique base name for one object in this scrape:
// base itself when free, else the first free base_2, base_3, ... A name
// is taken while its base or family name is reserved — a counter "x"
// reserves both x (its _bound family) and x_total, so neither a later
// gauge "x" nor a later counter "x_total" can land on an emitted
// series — or while any name it would emit has been emitted already:
// beside a histogram "h", a gauge "h_count" is renamed (in either
// order), and so is a max register "x_bound" beside a batched counter
// "x". A counter "h_count" keeps h_count_total: its base is reserved,
// never emitted.
func disambiguate(base string, s approxobj.ObjectSnapshot, reserved, emitted map[string]bool) string {
	name := base
	for i := 2; reserved[name] || reserved[familyName(name, s.Kind)] || anyIn(emitted, emits(name, s)); i++ {
		name = base + "_" + strconv.Itoa(i)
	}
	reserved[name] = true
	reserved[familyName(name, s.Kind)] = true
	for _, e := range emits(name, s) {
		emitted[e] = true
	}
	return name
}

// emits lists the names an object renders under base, in TYPE lines or
// as sample names: its family, a histogram's _bucket, _sum and _count
// series, and the _bound family when its envelope is not exact.
func emits(base string, s approxobj.ObjectSnapshot) []string {
	out := []string{familyName(base, s.Kind)}
	if s.Kind == approxobj.KindHistogram {
		out = append(out, base+"_bucket", base+"_sum", base+"_count")
	}
	if !s.Bounds.IsExact() {
		out = append(out, base+"_bound")
	}
	return out
}

func anyIn(set map[string]bool, names []string) bool {
	for _, n := range names {
		if set[n] {
			return true
		}
	}
	return false
}

// familyName returns the metric family a base renders as: counters
// append _total (unless already suffixed), every other kind emits the
// base itself.
func familyName(base string, kind approxobj.Kind) string {
	if kind == approxobj.KindCounter && !strings.HasSuffix(base, "_total") {
		return base + "_total"
	}
	return base
}

// writeObject renders one snapshot under the (already disambiguated)
// base name.
func writeObject(w io.Writer, base string, s approxobj.ObjectSnapshot) error {
	var err error
	switch s.Kind {
	case approxobj.KindCounter:
		err = writeScalar(w, familyName(base, s.Kind), "counter", s, "incremented count")
	case approxobj.KindMaxRegister:
		err = writeScalar(w, base, "gauge", s, "high-water mark")
	case approxobj.KindSnapshot:
		err = writeScalar(w, base, "gauge", s, "component sum")
	case approxobj.KindHistogram:
		err = writeHistogram(w, base, s)
	default:
		return fmt.Errorf("expose: unknown object kind %v for %q", s.Kind, s.Name)
	}
	if err != nil {
		return err
	}
	return writeBounds(w, base, s.Bounds)
}

func writeScalar(w io.Writer, name, typ string, s approxobj.ObjectSnapshot, what string) error {
	_, err := fmt.Fprintf(w, "# HELP %s approxobj %s \"%s\": %s%s\n# TYPE %s %s\n%s %s\n",
		name, s.Kind, escapeHelp(s.Name), what, envelopeNote(s.Bounds), name, typ, name, formatUint(s.Value))
	return err
}

func writeHistogram(w io.Writer, name string, s approxobj.ObjectSnapshot) error {
	d := s.Histogram
	if d == nil {
		// A histogram snapshot always carries detail; guard anyway so a
		// foreign ObjectSnapshot renders as an empty histogram rather
		// than panicking.
		d = &approxobj.HistogramDetail{}
	}
	if _, err := fmt.Fprintf(w, "# HELP %s approxobj histogram \"%s\": observed value distribution%s\n# TYPE %s histogram\n",
		name, escapeHelp(s.Name), envelopeNote(s.Bounds), name); err != nil {
		return err
	}
	sawInf := false
	for _, b := range d.Buckets {
		le := "+Inf"
		if b.UpperBound != ^uint64(0) {
			le = formatUint(b.UpperBound)
		} else {
			sawInf = true
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %s\n", name, le, formatUint(b.CumulativeCount)); err != nil {
			return err
		}
	}
	if !sawInf {
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %s\n", name, formatUint(d.Count)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %s\n", name, formatUint(d.Sum), name, formatUint(d.Count))
	return err
}

// writeBounds emits the companion _bound gauge family for b's nonzero
// terms; objects with the zero envelope (exact, unbuffered, uncached,
// cumulative) emit nothing.
func writeBounds(w io.Writer, base string, b approxobj.Bounds) error {
	type term struct {
		label string
		value string
	}
	var terms []term
	if b.Mult > 1 {
		terms = append(terms, term{"mult", formatUint(b.Mult)})
	}
	if b.Add > 0 {
		terms = append(terms, term{"add", formatUint(b.Add)})
	}
	if b.Buffer > 0 {
		terms = append(terms, term{"buffer", formatUint(b.Buffer)})
	}
	if b.Stale > 0 {
		terms = append(terms, term{"stale_seconds", formatSeconds(b.Stale.Seconds())})
	}
	if b.Window > 0 {
		terms = append(terms, term{"window_seconds", formatSeconds(b.Window.Seconds())})
	}
	if b.Delta > 0 {
		terms = append(terms, term{"delta", formatFloat(b.Delta)})
	}
	if len(terms) == 0 {
		return nil
	}
	name := base + "_bound"
	if _, err := fmt.Fprintf(w, "# HELP %s nonzero accuracy-envelope terms of %s (see approxobj.Bounds)\n# TYPE %s gauge\n",
		name, base, name); err != nil {
		return err
	}
	for _, t := range terms {
		if _, err := fmt.Fprintf(w, "%s{term=%q} %s\n", name, t.label, t.value); err != nil {
			return err
		}
	}
	return nil
}

// envelopeNote renders the nonzero envelope terms for HELP lines, or ""
// for the zero envelope.
func envelopeNote(b approxobj.Bounds) string {
	if b.IsExact() {
		return " (exact)"
	}
	var parts []string
	if b.Mult > 1 {
		parts = append(parts, "mult="+formatUint(b.Mult))
	}
	if b.Add > 0 {
		parts = append(parts, "add="+formatUint(b.Add))
	}
	if b.Buffer > 0 {
		parts = append(parts, "buffer="+formatUint(b.Buffer))
	}
	if b.Stale > 0 {
		parts = append(parts, "stale="+b.Stale.String())
	}
	if b.Window > 0 {
		parts = append(parts, "window="+b.Window.String())
	}
	if b.Delta > 0 {
		parts = append(parts, "delta="+formatFloat(b.Delta))
	}
	return " (approximate: " + strings.Join(parts, " ") + ")"
}

// SanitizeName maps a registry name to a valid Prometheus metric name:
// every byte outside [a-zA-Z0-9_:] becomes '_', and a leading digit is
// prefixed with '_'. The empty name maps to "_".
func SanitizeName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// formatUint renders a uint64 sample value. The text format carries
// float64 samples, so values above 2^53 lose precision at the consumer;
// the rendered text itself stays exact.
func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func formatSeconds(s float64) string { return strconv.FormatFloat(s, 'g', -1, 64) }

// formatFloat renders a probability term (the envelope's Delta) with the
// shortest exact representation, matching the seconds terms' style.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
