package experiments

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/models"
)

// tinySim keeps simulation-based tests fast; statistical assertions on
// tinySim runs are structural only (series shapes, orderings guaranteed by
// coupling) — point-value accuracy is tested separately on cheap models.
var tinySim = SimConfig{Reps: 2, Frames: 1500, Seed: 7}

func TestRenderAndCSV(t *testing.T) {
	r := &Result{
		ID: "x", Title: "demo", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Label: "s1", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Label: "s2", X: []float64{1, 2}, Y: []float64{30, 40}},
		},
	}
	out := r.Render()
	for _, want := range []string{"demo", "s1", "s2", "10", "40"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	csv := r.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv has %d lines, want 3:\n%s", len(lines), csv)
	}
	if lines[0] != "x,s1,s2" {
		t.Fatalf("csv header %q", lines[0])
	}
	if lines[1] != "1,10,30" {
		t.Fatalf("csv row %q", lines[1])
	}
}

func TestRenderRaggedSeries(t *testing.T) {
	r := &Result{
		ID: "x", XLabel: "x",
		Series: []Series{
			{Label: "long", X: []float64{1, 2, 3}, Y: []float64{1, 2, 3}},
			{Label: "short", X: []float64{1}, Y: []float64{9}},
		},
	}
	if !strings.Contains(r.Render(), "-") {
		t.Fatal("missing placeholder for ragged series")
	}
	if !strings.Contains(r.CSV(), ",\n") && !strings.HasSuffix(r.CSV(), ",") {
		t.Log(r.CSV())
	}
}

func TestSimConfigValidate(t *testing.T) {
	if err := DefaultSim.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (SimConfig{Reps: 0, Frames: 10}).Validate(); err == nil {
		t.Error("reps 0 should error")
	}
	if err := (SimConfig{Reps: 1, Frames: 0}).Validate(); err == nil {
		t.Error("frames 0 should error")
	}
}

func TestMsecConversion(t *testing.T) {
	// 20 msec at c = 538 cells/frame with Ts = 40 msec: half a frame's
	// service = 269 cells per source.
	if got := MsecToPerSourceCells(20, 538); math.Abs(got-269) > 1e-9 {
		t.Fatalf("got %v, want 269", got)
	}
	if got := MsecToPerSourceCells(0, 538); got != 0 {
		t.Fatalf("zero delay should be zero cells, got %v", got)
	}
}

func TestTable1Driver(t *testing.T) {
	tab, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 || len(tab.Fits) != 6 {
		t.Fatalf("unexpected table shape: %d rows, %d fits", len(tab.Rows), len(tab.Fits))
	}
}

func TestFig1(t *testing.T) {
	rs, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("got %d panels, want 2", len(rs))
	}
	if len(rs[0].Series) != 3 || len(rs[1].Series) != 4 {
		t.Fatalf("series counts %d/%d, want 3/4", len(rs[0].Series), len(rs[1].Series))
	}
	for _, r := range rs {
		for _, s := range r.Series {
			for i, y := range s.Y {
				if math.IsNaN(y) || y <= 0 || y >= 1 {
					t.Fatalf("%s %s: ACF[%d] = %v out of (0,1)", r.ID, s.Label, i, y)
				}
			}
		}
	}
}

func TestFig2(t *testing.T) {
	r, err := Fig2(300, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 2 {
		t.Fatalf("got %d series, want 2", len(r.Series))
	}
	for _, s := range r.Series {
		if len(s.Y) != 300 {
			t.Fatalf("%s: %d frames, want 300", s.Label, len(s.Y))
		}
		// Aggregate of 10 sources with mean 500 each.
		var sum float64
		for _, y := range s.Y {
			sum += y
		}
		if mean := sum / 300; mean < 3500 || mean > 6500 {
			t.Fatalf("%s: aggregate mean %v implausible", s.Label, mean)
		}
	}
	if _, err := Fig2(0, 1); err == nil {
		t.Fatal("frames = 0 should error")
	}
}

func TestFig3PanelsAndFitProperty(t *testing.T) {
	rs, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("got %d panels, want 4", len(rs))
	}
	// Panel (c)/(d): each DAR(p) series matches the Z series at lag 1.
	for _, panel := range rs[2:] {
		z := panel.Series[0]
		for _, s := range panel.Series[1:] {
			if math.Abs(s.Y[0]-z.Y[0]) > 1e-9 {
				t.Fatalf("%s %s: lag-1 %v != target %v", panel.ID, s.Label, s.Y[0], z.Y[0])
			}
		}
	}
	// Panel (b): Z and L tails converge by lag 1000 (within a factor 2).
	zb := rs[1]
	last := len(zb.Series[0].Y) - 1
	zTail := zb.Series[2].Y[last] // Z^0.975
	lTail := zb.Series[len(zb.Series)-1].Y[last]
	if ratio := lTail / zTail; ratio < 0.5 || ratio > 2 {
		t.Fatalf("L/Z tail ratio %v at lag 1000", ratio)
	}
}

func TestFig4Shapes(t *testing.T) {
	rs, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("got %d panels, want 2", len(rs))
	}
	for _, r := range rs {
		for _, s := range r.Series {
			if len(s.X) != len(BufferGridMsec) {
				t.Fatalf("%s %s: %d points", r.ID, s.Label, len(s.X))
			}
			// m*_0 = 1 and non-decreasing.
			if s.Y[0] != 1 {
				t.Fatalf("%s %s: m*_0 = %v, want 1", r.ID, s.Label, s.Y[0])
			}
			for i := 1; i < len(s.Y); i++ {
				if s.Y[i] < s.Y[i-1] {
					t.Fatalf("%s %s: CTS decreased at %v msec", r.ID, s.Label, s.X[i])
				}
			}
		}
	}
	// The paper's contrast is at small buffers: V^v values "much the same
	// for small buffer" while Z^a differs "as many as 15 even at B = 2
	// msec" (§5.3). At large buffers V^v legitimately spreads too — its
	// Hurst parameter (0.95) exceeds Z's (0.9), so its CTS slope is
	// steeper — which is why the comparison is pinned to 2 msec.
	spreadAt := func(r *Result, i int) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, s := range r.Series {
			lo, hi = math.Min(lo, s.Y[i]), math.Max(hi, s.Y[i])
		}
		return hi - lo
	}
	idx := indexOf(BufferGridMsec, 2)
	vSpread, zSpread := spreadAt(rs[0], idx), spreadAt(rs[1], idx)
	if vSpread > 4 {
		t.Fatalf("V^v CTS spread %v at 2 msec; paper has them nearly equal", vSpread)
	}
	if zSpread < 10 {
		t.Fatalf("Z^a CTS spread %v at 2 msec; paper reports ≈15", zSpread)
	}
	matchCommittedCSV(t, rs)
}

// matchCommittedCSV demands that each result renders byte for byte as its
// committed results/<id>.csv: the analytic figures are deterministic, so
// a change of one ulp anywhere in the ACF walk or the scans fails here.
func matchCommittedCSV(t *testing.T, rs []*Result) {
	t.Helper()
	for _, r := range rs {
		want, err := os.ReadFile(filepath.Join("..", "..", "results", r.ID+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		got, wantLines := strings.Split(r.CSV(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(got), len(wantLines)); i++ {
			if i >= len(got) || i >= len(wantLines) || got[i] != wantLines[i] {
				t.Errorf("%s.csv differs from the committed file from line %d:\n got %q\nwant %q",
					r.ID, i+1, got[min(i, len(got)-1)], wantLines[min(i, len(wantLines)-1)])
				break
			}
		}
	}
}

func TestFig5Ordering(t *testing.T) {
	rs, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	// Panel (b): at 20 msec, BOP increases with a.
	zb := rs[1]
	idx := indexOf(BufferGridMsec, 20)
	prev := 0.0
	for _, s := range zb.Series {
		if s.Y[idx] <= prev {
			t.Fatalf("Z panel not ordered by a at 20 msec: %s %v after %v", s.Label, s.Y[idx], prev)
		}
		prev = s.Y[idx]
	}
	// The paper's point is relative: the V^v curves (identical short-term
	// correlations) stay close together while the Z^a curves (identical
	// long-term correlations) fan out over many decades. Compare the
	// log-spreads at 20 msec.
	logSpread := func(r *Result) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, s := range r.Series {
			l := math.Log10(s.Y[idx])
			lo, hi = math.Min(lo, l), math.Max(hi, l)
		}
		return hi - lo
	}
	vSpread, zSpread := logSpread(rs[0]), logSpread(rs[1])
	if vSpread > 0.4*zSpread {
		t.Fatalf("V^v log-spread %v not ≪ Z^a log-spread %v at 20 msec", vSpread, zSpread)
	}
	// All curves decreasing in buffer.
	for _, r := range rs {
		for _, s := range r.Series {
			for i := 1; i < len(s.Y); i++ {
				if s.Y[i] > s.Y[i-1] {
					t.Fatalf("%s %s: BOP increased at %v msec", r.ID, s.Label, s.X[i])
				}
			}
		}
	}
	matchCommittedCSV(t, rs)
}

func indexOf(xs []float64, v float64) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

func TestFig6DARBeatsLInPracticalRange(t *testing.T) {
	rs, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	a := rs[0] // Z^0.975, DAR(1..3), L
	if len(a.Series) != 5 {
		t.Fatalf("panel (a) has %d series, want 5", len(a.Series))
	}
	// At small buffers, where short-term correlations dominate, DAR(1)
	// must predict Z's loss better than the tail-only model L. (The exact
	// DAR(1)/L crossover location is calibration-sensitive; the paper puts
	// it beyond the practical range, ours sits somewhat earlier — see
	// EXPERIMENTS.md — but the small-buffer ordering is structural.)
	idx := indexOf(BufferGridMsec, 6)
	z := math.Log(a.Series[0].Y[idx])
	dar1 := math.Log(a.Series[1].Y[idx])
	l := math.Log(a.Series[4].Y[idx])
	if math.Abs(dar1-z) >= math.Abs(l-z) {
		t.Fatalf("at 6 msec DAR(1) (log %v) should beat L (log %v) against Z (log %v)",
			dar1, l, z)
	}
	// DAR(p) approaches Z as p grows (log distance shrinks), across the
	// practical range.
	idx20 := indexOf(BufferGridMsec, 20)
	z20 := math.Log(a.Series[0].Y[idx20])
	d1 := math.Abs(math.Log(a.Series[1].Y[idx20]) - z20)
	d3 := math.Abs(math.Log(a.Series[3].Y[idx20]) - z20)
	if d3 > d1 {
		t.Fatalf("DAR(3) (dist %v) should be closer to Z than DAR(1) (dist %v)", d3, d1)
	}
}

func TestFig7LWinsEventually(t *testing.T) {
	rs, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	a := rs[0]
	idx := len(WideBufferGridMsec) - 1 // 1000 msec
	z := math.Log(a.Series[0].Y[idx])
	dar1 := math.Log(a.Series[1].Y[idx])
	l := math.Log(a.Series[4].Y[idx])
	if math.Abs(l-z) >= math.Abs(dar1-z) {
		t.Fatalf("at 1000 msec L (log %v) should beat DAR(1) (log %v) against Z (log %v)",
			l, dar1, z)
	}
}

func TestFig8Structure(t *testing.T) {
	rs, err := Fig8(tinySim)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || len(rs[0].Series) != 3 || len(rs[1].Series) != 4 {
		t.Fatalf("unexpected panel shapes")
	}
	for _, r := range rs {
		for _, s := range r.Series {
			if len(s.X) != len(SimBufferGridMsec) {
				t.Fatalf("%s %s: %d points, want %d", r.ID, s.Label, len(s.X), len(SimBufferGridMsec))
			}
			// CLR non-increasing in buffer (guaranteed path-wise by the
			// coupled sweep) and never negative.
			for i := 1; i < len(s.Y); i++ {
				if s.Y[i] > s.Y[i-1] {
					t.Fatalf("%s %s: CLR rose with buffer at %v msec", r.ID, s.Label, s.X[i])
				}
				if s.Y[i] < 0 {
					t.Fatalf("%s %s: negative CLR", r.ID, s.Label)
				}
			}
		}
	}
}

// TestFig8CSVIndependentOfWorkers runs one replication per series, so on
// three workers two lanes are idle and are lent to fill the replication's
// sources. The figure's CSV, which prints every CLR in full, must be
// byte-identical to the serial run. Most CLRs at 60 frames are 0 (at
// seed 7 all are); seed 2 gives two that are not, so a changed summation
// order shows.
func TestFig8CSVIndependentOfWorkers(t *testing.T) {
	csv := func(workers int) string {
		rs, err := Fig8(SimConfig{Reps: 1, Frames: 60, Seed: 2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		lossy := false
		for _, r := range rs {
			b.WriteString(r.CSV())
			for _, s := range r.Series {
				lossy = lossy || s.Y[0] > 0
			}
		}
		if !lossy {
			t.Fatalf("workers=%d: every CLR is 0, so the comparison would show nothing", workers)
		}
		return b.String()
	}
	if serial, lent := csv(1), csv(3); serial != lent {
		t.Fatalf("Fig8 CSV differs between 1 and 3 workers:\n%s\nvs\n%s", serial, lent)
	}
}

func TestZeroBufferCLRAccuracy(t *testing.T) {
	// Point-value check of the simulation pipeline on a cheap generator:
	// a DAR(1) fit to Z^0.975 shares the Gaussian marginal, so its
	// zero-buffer CLR must match the analytic fluid value. DAR paths are
	// ~100× cheaper than FBNDP paths, affording real statistics.
	z, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	d, err := models.FitS(z, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := clrSeries(d, BopC, BopN, []float64{0}, SimConfig{Reps: 4, Frames: 40000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := ZeroBufferCheck(BopC, BopN)
	if ratio := s.Y[0] / want; ratio < 0.5 || ratio > 2 {
		t.Fatalf("zero-buffer CLR %v vs analytic %v", s.Y[0], want)
	}
}

func TestFig9Structure(t *testing.T) {
	rs, err := Fig9(tinySim)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("got %d panels", len(rs))
	}
	if len(rs[0].Series) != 5 { // Z, DAR(1..3), L
		t.Fatalf("panel (a) series %d, want 5", len(rs[0].Series))
	}
	if len(rs[1].Series) != 4 { // Z, DAR(1..3)
		t.Fatalf("panel (b) series %d, want 4", len(rs[1].Series))
	}
}

func TestFig10Structure(t *testing.T) {
	r, err := Fig10(tinySim)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 3 {
		t.Fatalf("got %d series, want 3", len(r.Series))
	}
	br, ln, sim := r.Series[0], r.Series[1], r.Series[2]
	for i := range br.Y {
		if br.Y[i] > ln.Y[i] {
			t.Fatalf("B-R above large-N at %v msec", br.X[i])
		}
	}
	if sim.Y[0] <= 0 {
		t.Fatal("simulated zero-buffer CLR should be positive")
	}
	// Both asymptotics upper-bound the simulated CLR at moderate buffers
	// (the paper reports ≈2 orders of magnitude of conservatism).
	idx := 4
	if ln.Y[idx] < sim.Y[idx] {
		t.Fatalf("large-N %v below simulation %v", ln.Y[idx], sim.Y[idx])
	}
}

func TestZeroBufferCheckValue(t *testing.T) {
	// The paper: "all the CLR curves begin around the same value at zero
	// buffer (slightly larger than 1e-5)".
	got := ZeroBufferCheck(BopC, BopN)
	if got < 5e-6 || got > 5e-5 {
		t.Fatalf("zero-buffer CLR %v outside the paper's ballpark", got)
	}
}

func TestSimRejectsBadConfig(t *testing.T) {
	if _, err := Fig8(SimConfig{}); err == nil {
		t.Fatal("invalid sim config should error")
	}
}
