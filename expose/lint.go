package expose

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// This file is the format checker behind the package's own tests and
// the CI scrape smoke: Lint re-validates what WriteRegistry emits, so a
// rendering bug fails loudly instead of producing a scrape Prometheus
// would silently drop.

// sampleRe matches one sample line of the text format: a metric name,
// an optional label set, and a decimal value.
var sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? ([0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$`)

// leRe extracts the le label of a histogram bucket sample.
var leRe = regexp.MustCompile(`le="([^"]*)"`)

// Lint checks that body is well-formed Prometheus text exposition
// format (version 0.0.4) as this package emits it: every line is a
// HELP/TYPE comment, a sample, or blank; every sample's family was
// TYPEd before its first sample; no name is claimed by two families,
// as a TYPE name or a sample name; and every histogram family has
// nondecreasing cumulative buckets ending in an le="+Inf" bucket equal
// to its _count. A histogram's _bucket, _sum and _count samples belong
// to it only while it is the family TYPEd last. It returns the first
// violation, or nil.
func Lint(body string) error {
	typed := map[string]string{} // family -> type
	owner := map[string]string{} // TYPE or sample name -> family
	cur := ""                    // the family TYPEd last
	buckets := map[string][]uint64{}
	lastLE := map[string]string{}
	counts := map[string]uint64{}
	var families []string // histogram families, first-seen order
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				return fmt.Errorf("expose: malformed TYPE line %q", line)
			}
			if typed[f[2]] != "" {
				return fmt.Errorf("expose: family %s TYPEd twice (name collision in the scrape?)", f[2])
			}
			if o := owner[f[2]]; o != "" {
				return fmt.Errorf("expose: name %s claimed by families %s and %s", f[2], o, f[2])
			}
			typed[f[2]], owner[f[2]], cur = f[3], f[2], f[2]
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("expose: malformed sample line %q", line)
		}
		name, labels, val := m[1], m[2], m[3]
		family, suffix := name, ""
		if s, ok := strings.CutPrefix(name, cur); ok && typed[cur] == "histogram" &&
			(s == "_bucket" || s == "_sum" || s == "_count") {
			family, suffix = cur, s
		}
		if typed[family] == "" {
			return fmt.Errorf("expose: sample %q has no preceding TYPE", line)
		}
		if o := owner[name]; o != "" && o != family {
			return fmt.Errorf("expose: name %s claimed by families %s and %s", name, o, family)
		}
		owner[name] = family
		if suffix == "_bucket" {
			v, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return fmt.Errorf("expose: non-integer bucket value in %q: %v", line, err)
			}
			bs := buckets[family]
			if len(bs) == 0 {
				families = append(families, family)
			}
			if len(bs) > 0 && v < bs[len(bs)-1] {
				return fmt.Errorf("expose: histogram %s buckets not cumulative: %v then %d", family, bs, v)
			}
			buckets[family] = append(bs, v)
			if le := leRe.FindStringSubmatch(labels); le != nil {
				lastLE[family] = le[1]
			}
		}
		if suffix == "_count" {
			v, _ := strconv.ParseUint(val, 10, 64)
			counts[family] = v
		}
	}
	for _, fam := range families {
		bs := buckets[fam]
		if lastLE[fam] != "+Inf" {
			return fmt.Errorf("expose: histogram %s does not end in le=%q bucket (got %q)", fam, "+Inf", lastLE[fam])
		}
		if bs[len(bs)-1] != counts[fam] {
			return fmt.Errorf("expose: histogram %s +Inf bucket %d != _count %d", fam, bs[len(bs)-1], counts[fam])
		}
	}
	return nil
}
