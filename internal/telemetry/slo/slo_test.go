package slo

import (
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func mustParse(t *testing.T, s string) Rule {
	t.Helper()
	r, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return r
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want string // normalised Expr
	}{
		{"p99(mux_chunk_drain_seconds) <= 0.01", "p99(mux_chunk_drain_seconds) <= 0.01"},
		{"  P95( lat ) < 2 ", "p95(lat) < 2"},
		{"rate(mux_cells_lost_total) within [0, 1e6]", "rate(mux_cells_lost_total) within [0, 1e+06]"},
		{"value(x{b=2,a=1}) == 0", "value(x{a=1,b=2}) == 0"},
		{"stalled(reps_done_total) <= 5", "stalled(reps_done_total) <= 5"},
		{"nonfinite(occupancy) != 3", "nonfinite(occupancy) != 3"},
		{"count(h) >= 10", "count(h) >= 10"},
		{"delta(c) > 0", "delta(c) > 0"},
	}
	for _, c := range cases {
		r := mustParse(t, c.in)
		if r.Expr != c.want {
			t.Errorf("Parse(%q).Expr = %q, want %q", c.in, r.Expr, c.want)
		}
		// Normalisation is a fixed point.
		r2 := mustParse(t, r.Expr)
		if r2.Expr != r.Expr {
			t.Errorf("re-parse of %q gives %q", r.Expr, r2.Expr)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"", "p99", "p99()", "bogus(x) <= 1", "p99(x) 1", "p99(x) <=",
		"p99(x) within [1, 0]", "p99(x) within 1,2", "value(x{a}) == 0",
		"p99(x{a=1) <= 1",
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): want error", in)
		}
	}
}

func TestParseList(t *testing.T) {
	rules, err := ParseList("p99(a) <= 1; value(b) == 0 ;")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("got %d rules", len(rules))
	}
	if _, err := ParseList(" ; "); err == nil {
		t.Fatal("want error for empty list")
	}
}

func snap(reg *telemetry.Registry) []telemetry.Snapshot { return reg.Snapshot() }

func TestEngineThresholdBreach(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Timer("decision_seconds")
	eng := NewEngine(reg, []Rule{mustParse(t, "p99(decision_seconds) <= 0.01")})

	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	eng.Observe(snap(reg), 1)
	if v := eng.Verdict(); v.Failed {
		t.Fatalf("fast decisions should pass: %s", v.Summary())
	}
	h.Observe(10 * time.Second) // one catastrophic outlier drags p99 over
	for i := 0; i < 5; i++ {
		h.Observe(10 * time.Second)
	}
	eng.Observe(snap(reg), 2)
	v := eng.Verdict()
	if !v.Failed {
		t.Fatalf("slow p99 should fail: %s", v.Summary())
	}
	if v.Rules[0].Breaches != 1 || v.Rules[0].Evaluations != 2 {
		t.Errorf("rule result %+v", v.Rules[0])
	}
	if got := reg.Counter("slo_breaches_total", telemetry.L("rule", v.Rules[0].Rule)).Value(); got != 1 {
		t.Errorf("slo_breaches_total = %d, want 1", got)
	}
	if got := reg.Counter("slo_evaluations_total").Value(); got != 2 {
		t.Errorf("slo_evaluations_total = %d, want 2", got)
	}
}

func TestEngineAbsentMetricDefaults(t *testing.T) {
	reg := telemetry.NewRegistry()
	eng := NewEngine(reg, []Rule{
		mustParse(t, "value(health_nonfinite_total) == 0"), // absent → 0 → pass
		mustParse(t, "p99(never_observed_seconds) <= 1"),   // absent → never evaluated → fail
	})
	eng.Observe(snap(reg), 1)
	v := eng.Verdict()
	if !v.Rules[0].Pass {
		t.Errorf("absent counter ==0 should pass: %+v", v.Rules[0])
	}
	if v.Rules[1].Pass {
		t.Errorf("absent quantile metric should fail the verdict: %+v", v.Rules[1])
	}
	if !v.Failed {
		t.Error("verdict should fail overall")
	}
	if !strings.Contains(v.Rules[1].Note, "never observed") {
		t.Errorf("note %q", v.Rules[1].Note)
	}
}

func TestEngineRate(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("lost_total")
	eng := NewEngine(reg, []Rule{mustParse(t, "rate(lost_total) within [0, 10]")})
	c.Add(5)
	eng.Observe(snap(reg), 1) // first sample: warming up, no eval
	c.Add(5)
	eng.Observe(snap(reg), 2) // 5/s — in band
	if v := eng.Verdict(); v.Failed {
		t.Fatalf("in-band rate failed: %s", v.Summary())
	}
	c.Add(100)
	eng.Observe(snap(reg), 3) // 100/s — breach
	v := eng.Verdict()
	if !v.Failed || v.Rules[0].Breaches != 1 {
		t.Fatalf("out-of-band rate should breach once: %s", v.Summary())
	}
}

func TestEngineStalled(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("reps_done_total")
	eng := NewEngine(reg, []Rule{mustParse(t, "stalled(reps_done_total) <= 2")})
	c.Add(1)
	for i := 0; i < 3; i++ { // progress every frame: stall count stays 0
		c.Inc()
		eng.Observe(snap(reg), float64(i))
	}
	if v := eng.Verdict(); v.Failed {
		t.Fatalf("progressing counter stalled: %s", v.Summary())
	}
	for i := 0; i < 3; i++ { // frozen: stall reaches 3 > 2
		eng.Observe(snap(reg), float64(10+i))
	}
	v := eng.Verdict()
	if !v.Failed {
		t.Fatalf("frozen counter should breach stall rule: %s", v.Summary())
	}
}

func TestEngineLabelSelector(t *testing.T) {
	reg := telemetry.NewRegistry()
	hit := reg.Counter("cache_total", telemetry.L("outcome", "hit"))
	miss := reg.Counter("cache_total", telemetry.L("outcome", "miss"))
	eng := NewEngine(reg, []Rule{mustParse(t, "value(cache_total{outcome=miss}) <= 5")})
	hit.Add(1000) // must not count against the miss rule
	miss.Add(3)
	eng.Observe(snap(reg), 1)
	if v := eng.Verdict(); v.Failed {
		t.Fatalf("hit counter leaked into miss selector: %s", v.Summary())
	}
	miss.Add(100)
	eng.Observe(snap(reg), 2)
	if v := eng.Verdict(); !v.Failed {
		t.Fatalf("miss breach not detected: %s", v.Summary())
	}
}

func TestEngineUnlabeledRuleMatchesAllInstruments(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := reg.Counter("lane_total", telemetry.L("lane", "1"))
	b := reg.Counter("lane_total", telemetry.L("lane", "2"))
	eng := NewEngine(reg, []Rule{mustParse(t, "value(lane_total) <= 10")})
	a.Add(5)
	b.Add(50) // any matching instrument over the bound breaches
	eng.Observe(snap(reg), 1)
	if v := eng.Verdict(); !v.Failed {
		t.Fatalf("per-instrument breach missed: %s", v.Summary())
	}
}

func TestVerdictSummary(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("ok_total").Add(1)
	eng := NewEngine(reg, []Rule{mustParse(t, "value(ok_total) >= 1")})
	eng.Observe(snap(reg), 1)
	s := eng.Verdict().Summary()
	if !strings.Contains(s, "PASS") || !strings.Contains(s, "ok_total") {
		t.Errorf("summary %q", s)
	}
}

func TestEngineNilRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("x_total").Add(1)
	eng := NewEngine(nil, []Rule{mustParse(t, "value(x_total) == 1")})
	eng.Observe(snap(reg), 1) // must not panic without an alert registry
	if v := eng.Verdict(); v.Failed {
		t.Fatalf("unexpected failure: %s", v.Summary())
	}
}
