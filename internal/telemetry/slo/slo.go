// Package slo is a declarative service-level-objective engine evaluated
// online against flight-recorder snapshots. Rules are compact strings:
//
//	p99(mux_chunk_drain_seconds) <= 0.01
//	value(mux_path_runs_total{path=stepped}) == 0
//	rate(mux_cells_lost_total) within [0, 1e6]
//	stalled(runner_reps_done_total) <= 5
//	nonfinite(mux_buffer_occupancy_cells) == 0
//	value(diag_health_total) == 0
//
// Grammar: AGG(METRIC[{k=v,...}]) OP BOUND, where
//
//   - AGG is one of value, count, sum, min, max, p50, p95, p99 (read the
//     matching snapshot field), nonfinite (quarantined NaN/±Inf
//     observations), rate (per-second delta between consecutive frames),
//     delta (raw change between consecutive frames), or stalled (number
//     of consecutive frames the value has not moved — the "convergence
//     stalled > N windows" detector).
//   - OP is <=, <, >=, >, ==, != against one number, or `within [lo, hi]`
//     for a closed band.
//   - The label set, when present, must be a subset of the instrument's
//     labels; a rule without labels applies to every instrument of the
//     family, and every matching instrument must satisfy the bound.
//
// Missing metrics: value/count/sum/nonfinite of an absent instrument read
// as 0 (an untouched counter and an absent one are the same thing), so
// "== 0" health rules hold vacuously. Quantile, min/max, rate, delta and
// stalled rules need observed data; they are skipped while the metric is
// absent, but a rule whose metric NEVER appeared over the whole run fails
// the verdict — a typo in a metric name must not pass CI as green.
//
// The engine is fed one snapshot at a time (Engine.Observe, typically
// from the flight recorder's OnFrame hook), bumps slo_evaluations_total /
// slo_breaches_total{rule=...} alert counters in the registry it's given,
// and renders a terminal Verdict whose Failed state is the CI gate.
package slo

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// Agg enumerates the supported aggregations.
type Agg string

const (
	AggValue     Agg = "value"
	AggCount     Agg = "count"
	AggSum       Agg = "sum"
	AggMin       Agg = "min"
	AggMax       Agg = "max"
	AggP50       Agg = "p50"
	AggP95       Agg = "p95"
	AggP99       Agg = "p99"
	AggNonFinite Agg = "nonfinite"
	AggRate      Agg = "rate"
	AggDelta     Agg = "delta"
	AggStalled   Agg = "stalled"
)

var validAggs = map[Agg]bool{
	AggValue: true, AggCount: true, AggSum: true, AggMin: true, AggMax: true,
	AggP50: true, AggP95: true, AggP99: true, AggNonFinite: true,
	AggRate: true, AggDelta: true, AggStalled: true,
}

// Op enumerates the comparators.
type Op string

const (
	OpLE     Op = "<="
	OpLT     Op = "<"
	OpGE     Op = ">="
	OpGT     Op = ">"
	OpEQ     Op = "=="
	OpNE     Op = "!="
	OpWithin Op = "within"
)

// Rule is one parsed objective.
type Rule struct {
	Expr   string            // normalised source text, the rule's identity
	Agg    Agg               // aggregation over the metric
	Metric string            // metric family name
	Labels map[string]string // required label subset; nil = match all
	Op     Op
	Bound  float64 // comparison bound (unused for within)
	Lo, Hi float64 // within band, inclusive
}

// String returns the normalised rule text.
func (r Rule) String() string { return r.Expr }

// Parse parses one rule. See the package comment for the grammar.
func Parse(s string) (Rule, error) {
	orig := s
	s = strings.TrimSpace(s)
	if s == "" {
		return Rule{}, fmt.Errorf("slo: empty rule")
	}
	open := strings.IndexByte(s, '(')
	if open < 0 {
		return Rule{}, fmt.Errorf("slo: rule %q: want AGG(metric) OP bound", orig)
	}
	agg := Agg(strings.ToLower(strings.TrimSpace(s[:open])))
	if !validAggs[agg] {
		return Rule{}, fmt.Errorf("slo: rule %q: unknown aggregation %q", orig, string(agg))
	}
	depth, closeIdx := 1, -1
	for i := open + 1; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				closeIdx = i
			}
		}
		if closeIdx >= 0 {
			break
		}
	}
	if closeIdx < 0 {
		return Rule{}, fmt.Errorf("slo: rule %q: unclosed selector", orig)
	}
	metric, labels, err := parseSelector(s[open+1 : closeIdx])
	if err != nil {
		return Rule{}, fmt.Errorf("slo: rule %q: %w", orig, err)
	}
	rest := strings.TrimSpace(s[closeIdx+1:])
	r := Rule{Agg: agg, Metric: metric, Labels: labels}
	if strings.HasPrefix(strings.ToLower(rest), string(OpWithin)) {
		band := strings.TrimSpace(rest[len(OpWithin):])
		if !strings.HasPrefix(band, "[") || !strings.HasSuffix(band, "]") {
			return Rule{}, fmt.Errorf("slo: rule %q: want within [lo, hi]", orig)
		}
		parts := strings.Split(band[1:len(band)-1], ",")
		if len(parts) != 2 {
			return Rule{}, fmt.Errorf("slo: rule %q: want within [lo, hi]", orig)
		}
		lo, err1 := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		hi, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err1 != nil || err2 != nil || !(lo <= hi) {
			return Rule{}, fmt.Errorf("slo: rule %q: bad band %q", orig, band)
		}
		r.Op, r.Lo, r.Hi = OpWithin, lo, hi
	} else {
		var op Op
		// Two-character operators first so "<=" never lexes as "<".
		for _, cand := range []Op{OpLE, OpGE, OpEQ, OpNE, OpLT, OpGT} {
			if strings.HasPrefix(rest, string(cand)) {
				op = cand
				break
			}
		}
		if op == "" {
			return Rule{}, fmt.Errorf("slo: rule %q: missing comparator", orig)
		}
		bound, err := strconv.ParseFloat(strings.TrimSpace(rest[len(op):]), 64)
		if err != nil {
			return Rule{}, fmt.Errorf("slo: rule %q: bad bound: %w", orig, err)
		}
		r.Op, r.Bound = op, bound
	}
	r.Expr = r.render()
	return r, nil
}

// ParseList parses a semicolon-separated rule list (empty segments are
// skipped, so trailing separators are harmless).
func ParseList(s string) ([]Rule, error) {
	var out []Rule
	for _, seg := range strings.Split(s, ";") {
		if strings.TrimSpace(seg) == "" {
			continue
		}
		r, err := Parse(seg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("slo: no rules in %q", s)
	}
	return out, nil
}

// parseSelector splits "metric" or "metric{k=v,k2=v2}".
func parseSelector(s string) (string, map[string]string, error) {
	s = strings.TrimSpace(s)
	brace := strings.IndexByte(s, '{')
	if brace < 0 {
		if s == "" {
			return "", nil, fmt.Errorf("empty metric name")
		}
		return s, nil, nil
	}
	if !strings.HasSuffix(s, "}") {
		return "", nil, fmt.Errorf("unclosed label set in %q", s)
	}
	name := strings.TrimSpace(s[:brace])
	if name == "" {
		return "", nil, fmt.Errorf("empty metric name")
	}
	labels := make(map[string]string)
	for _, pair := range strings.Split(s[brace+1:len(s)-1], ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		eq := strings.IndexByte(pair, '=')
		if eq <= 0 {
			return "", nil, fmt.Errorf("bad label pair %q", pair)
		}
		k := strings.TrimSpace(pair[:eq])
		v := strings.Trim(strings.TrimSpace(pair[eq+1:]), `"`)
		labels[k] = v
	}
	return name, labels, nil
}

// render rebuilds the normalised rule text (sorted labels, canonical
// spacing) used as the rule's identity in metrics labels and reports.
func (r Rule) render() string {
	var b strings.Builder
	b.WriteString(string(r.Agg))
	b.WriteByte('(')
	b.WriteString(r.Metric)
	if len(r.Labels) > 0 {
		keys := make([]string, 0, len(r.Labels))
		for k := range r.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(k)
			b.WriteByte('=')
			b.WriteString(r.Labels[k])
		}
		b.WriteByte('}')
	}
	b.WriteByte(')')
	if r.Op == OpWithin {
		fmt.Fprintf(&b, " within [%g, %g]", r.Lo, r.Hi)
	} else {
		fmt.Fprintf(&b, " %s %g", r.Op, r.Bound)
	}
	return b.String()
}

// compare applies the rule's comparator to one value.
func (r Rule) compare(v float64) bool {
	switch r.Op {
	case OpLE:
		return v <= r.Bound
	case OpLT:
		return v < r.Bound
	case OpGE:
		return v >= r.Bound
	case OpGT:
		return v > r.Bound
	case OpEQ:
		return v == r.Bound //lint:floateq SLO equality rules compare exact recorded values (typically integer-valued counters) by design
	case OpNE:
		return v != r.Bound //lint:floateq see above: exact comparison is the documented rule semantic
	case OpWithin:
		return v >= r.Lo && v <= r.Hi
	}
	return false
}

// matches reports whether a snapshot belongs to the rule's selector.
func (r Rule) matches(s telemetry.Snapshot) bool {
	if s.Name != r.Metric {
		return false
	}
	for k, v := range r.Labels {
		if s.Labels[k] != v {
			return false
		}
	}
	return true
}

// zeroDefault reports whether the rule's aggregation reads an absent
// instrument as 0 (flows and counts) rather than "no data" (distribution
// shapes and derivatives).
func (r Rule) zeroDefault() bool {
	switch r.Agg {
	case AggValue, AggCount, AggSum, AggNonFinite:
		return true
	}
	return false
}
