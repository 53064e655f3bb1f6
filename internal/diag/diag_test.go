package diag

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/telemetry"
)

func TestWelfordAgainstDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 1000)
	var w Welford
	var sum float64
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
		w.Add(xs[i])
		sum += xs[i]
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	varDirect := ss / float64(len(xs)-1)
	if math.Abs(w.Mean()-mean) > 1e-12*math.Abs(mean) {
		t.Errorf("mean = %v, want %v", w.Mean(), mean)
	}
	if math.Abs(w.Var()-varDirect) > 1e-9*varDirect {
		t.Errorf("var = %v, want %v", w.Var(), varDirect)
	}
	if w.N() != 1000 {
		t.Errorf("n = %d", w.N())
	}
}

func TestTrackerSequentialConvergence(t *testing.T) {
	// A tight stream around 1.0 converges quickly; FirstConvergedAt must
	// record the first crossing, not the last state.
	tr := NewTracker(0.10)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		tr.Add(1 + 0.05*rng.NormFloat64())
	}
	if !tr.Converged() {
		t.Fatalf("tight stream unconverged: rel = %v", tr.Rel())
	}
	at := tr.FirstConvergedAt()
	if at < 2 || at > 20 {
		t.Errorf("first convergence at n=%d, expected a handful of reps", at)
	}
	// Two observations of a wildly spread stream must not claim convergence.
	wide := NewTracker(0.10)
	wide.Add(1)
	wide.Add(100)
	if wide.Converged() {
		t.Error("spread stream claimed convergence")
	}
	if wide.Rel() <= 0.10 {
		t.Errorf("rel = %v suspiciously tight", wide.Rel())
	}
}

func TestTrackerDegenerateStreams(t *testing.T) {
	// Identical values: exact interval, rel = 0, converged.
	c := NewTracker(0.01)
	c.Add(5)
	c.Add(5)
	c.Add(5)
	if got := c.Rel(); got != 0 {
		t.Errorf("constant stream rel = %v, want 0", got)
	}
	if !c.Converged() {
		t.Error("constant stream should be converged")
	}
	// All-zero CLRs (nothing lost at a huge buffer) are a legitimate
	// degenerate estimate, not a divide-by-zero.
	z := NewTracker(0.25)
	z.Add(0)
	z.Add(0)
	if !z.Converged() || z.Rel() != 0 {
		t.Errorf("all-zero stream: rel=%v converged=%v", z.Rel(), z.Converged())
	}
	// Zero mean with spread: undefined relative width, never converged.
	s := NewTracker(0.25)
	s.Add(1)
	s.Add(-1)
	if !math.IsInf(s.Rel(), 1) || s.Converged() {
		t.Errorf("zero-mean spread stream: rel=%v converged=%v", s.Rel(), s.Converged())
	}
	// Fewer than two observations: no interval yet.
	one := NewTracker(0.25)
	one.Add(3)
	if one.Converged() {
		t.Error("single observation claimed convergence")
	}
}

func TestTrackerQuarantinesNonFinite(t *testing.T) {
	tr := NewTracker(0.5)
	tr.Add(1)
	tr.Add(math.NaN())
	tr.Add(math.Inf(1))
	tr.Add(1)
	if tr.N() != 2 || tr.NonFinite() != 2 {
		t.Fatalf("n=%d nonfinite=%d, want 2/2", tr.N(), tr.NonFinite())
	}
	if tr.Mean() != 1 {
		t.Errorf("mean polluted by non-finite values: %v", tr.Mean())
	}
	if tr.Converged() {
		t.Error("stream with quarantined values claimed convergence")
	}
}

func TestESS(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Independent draws: ESS ≈ n.
	iid := make([]float64, 400)
	for i := range iid {
		iid[i] = rng.NormFloat64()
	}
	if ess := ESS(iid); ess < 200 {
		t.Errorf("iid ESS = %v, want close to 400", ess)
	}
	// Strong AR(1) correlation: ESS ≪ n. Theoretical ESS for ρ=0.9 is
	// n·(1−ρ)/(1+ρ) ≈ n/19.
	ar := make([]float64, 400)
	for i := 1; i < len(ar); i++ {
		ar[i] = 0.9*ar[i-1] + rng.NormFloat64()
	}
	ess := ESS(ar)
	if ess > 100 {
		t.Errorf("AR(1) ρ=0.9 ESS = %v, want ≪ n", ess)
	}
	if ess < 1 {
		t.Errorf("ESS = %v below clamp", ess)
	}
	// Degenerate inputs.
	if got := ESS(nil); got != 0 {
		t.Errorf("ESS(nil) = %v", got)
	}
	if got := ESS([]float64{1}); got != 1 {
		t.Errorf("ESS(1 value) = %v", got)
	}
	if got := ESS([]float64{2, 2, 2}); got != 3 {
		t.Errorf("ESS(constant) = %v, want n", got)
	}
}

func TestAssess(t *testing.T) {
	// Tight replication set converges; ESS-scaled width stays finite.
	v := Assess([]float64{1.0, 1.02, 0.99, 1.01, 1.0, 0.98}, 0.25)
	if !v.Converged || v.N != 6 || v.NonFinite != 0 {
		t.Errorf("tight set: %+v", v)
	}
	// Wildly spread set does not.
	v = Assess([]float64{1e-7, 5e-6, 2e-8, 9e-6}, 0.25)
	if v.Converged {
		t.Errorf("spread set claimed convergence: %+v", v)
	}
	// A NaN anywhere disqualifies the point and is reported.
	v = Assess([]float64{1, 1, math.NaN()}, 0.25)
	if v.Converged || v.NonFinite != 1 {
		t.Errorf("NaN set: %+v", v)
	}
	// Verdict strings are loggable either way.
	if s := v.String(); s == "" {
		t.Error("empty verdict string")
	}
}

func TestProbe(t *testing.T) {
	p := NewProbe("test.site")
	if NewProbe("test.site") != p {
		t.Fatal("probe registry not shared per site")
	}
	if !p.Check(1.5) || !p.Check(-2) || !p.Check(0) || !p.Check(math.Copysign(0, -1)) ||
		!p.Check(0x1p-1022) || !p.Check(-math.MaxFloat64) {
		t.Error("finite values flagged")
	}
	if p.Check(math.NaN()) {
		t.Error("NaN passed Check")
	}
	if p.Check(math.Inf(-1)) {
		t.Error("-Inf passed Check")
	}
	p.Check(1e-310)         // subnormal: recorded but finite
	p.CheckPositive(0)      // exact underflow
	p.CheckPositive(1e-300) // fine
	c := p.Counts()
	if c.NaN != 1 || c.Inf != 1 || c.Subnormal != 1 || c.Underflow != 1 {
		t.Errorf("counts = %+v", c)
	}
	// The snapshot includes only firing probes.
	NewProbe("test.silent")
	found := false
	for _, h := range HealthSnapshot() {
		if h.Site == "test.silent" {
			t.Error("silent probe in snapshot")
		}
		if h.Site == "test.site" {
			found = true
		}
	}
	if !found {
		t.Error("firing probe missing from snapshot")
	}
	// Violations are mirrored into the default telemetry registry.
	mirrored := false
	for _, s := range telemetry.Default.Snapshot() {
		if s.Name == "diag_health_total" && s.Labels["site"] == "test.site" {
			mirrored = true
		}
	}
	if !mirrored {
		t.Error("violations not mirrored into telemetry.Default")
	}
}
