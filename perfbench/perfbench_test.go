package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/mux"
)

// root is the repository root, which holds results/ and BENCHMARK.json.
const root = ".."

// metricName is the form every reported metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestRisingCLRFails(t *testing.T) {
	res := []*experiments.Result{{ID: "fig10", XLabel: "buffer msec", Series: []experiments.Series{
		{Label: "simulated CLR", X: []float64{0, 1, 2}, Y: []float64{1e-3, 2e-3, 1e-4}},
	}}}
	w, err := findWorkload("fig10-dar")
	if err != nil {
		t.Fatal(err)
	}
	checks := checkOutputs(w, root, &passOutput{results: res})
	if failedCount(checks) != 1 {
		t.Fatalf("want one failed check for a CLR that rises with buffer, got %+v", checks)
	}
	r, _ := summarize(w, true, []passReport{{Index: 1, Timed: true, Mode: "untraced", Workers: 2, WallS: 1, Checks: checks}})
	if r.Correct || r.Metrics["fail_share"].Value <= 0 {
		t.Fatalf("fail_share = %v, correct = %v; want > 0 and false", r.Metrics["fail_share"].Value, r.Correct)
	}
}

func TestRisingReplicationFails(t *testing.T) {
	sw := sweepOut{label: "Z^0.9", coupled: true, byBuffer: [][]mux.Result{
		{{ArrivedCells: 100, LostCells: 1, CLR: 0.01}},
		{{ArrivedCells: 100, LostCells: 2, CLR: 0.02}},
	}}
	if n := failedCount(checkSweeps([]sweepOut{sw})); n != 1 {
		t.Fatalf("failed checks = %d, want 1", n)
	}
	sw.byBuffer[1][0] = mux.Result{ArrivedCells: 100, LostCells: 200, CLR: 2}
	if n := failedCount(checkSweeps([]sweepOut{sw})); n != 2 {
		t.Fatalf("failed checks = %d, want 2 (lost > arrived, and rising)", n)
	}
}

func TestChangedCSVCellFails(t *testing.T) {
	r := &experiments.Result{ID: "fig5a", XLabel: "buffer msec", Series: []experiments.Series{
		{Label: "V^1", X: []float64{0, 1}, Y: []float64{0.001781095262218884, 0.00016973492548306323}},
	}}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "results", "fig5a.csv")
	if err := os.WriteFile(path, []byte(r.CSV()), 0o644); err != nil {
		t.Fatal(err)
	}
	if n := failedCount(checkGolden(dir, []*experiments.Result{r})); n != 0 {
		t.Fatalf("unchanged CSV: %d failed checks", n)
	}
	r.Series[0].Y[1] = 0.0001697
	if n := failedCount(checkGolden(dir, []*experiments.Result{r})); n != 1 {
		t.Fatalf("changed cell: %d failed checks, want 1", n)
	}
}

func TestCommittedAnalyticFilesExist(t *testing.T) {
	for _, id := range []string{"fig4a", "fig4b", "fig5a", "fig5b"} {
		if _, err := os.Stat(filepath.Join(root, "results", id+".csv")); err != nil {
			t.Error(err)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the metric lists must match.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	for _, l := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range l {
			if !metricName.MatchString(m.name) {
				t.Errorf("metric name %q does not match %v", m.name, metricName)
			}
		}
	}
	same := func(kind string, defs []metricDef, listed []struct{ Name, Unit string }) {
		if len(defs) != len(listed) {
			t.Errorf("%s: benchmark reports %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(listed))
			return
		}
		for i, d := range defs {
			if d.name != listed[i].Name || d.unit != listed[i].Unit {
				t.Errorf("%s[%d]: benchmark reports %s (%s), BENCHMARK.json lists %s (%s)",
					kind, i, d.name, d.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, bf.EndToEnd)
	same("per_layer", perLayer, bf.PerLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	// Every listed metric is reported, in both modes.
	w := workloads[0]
	p := passReport{Index: 1, Timed: true, Mode: "untraced", Workers: 2, WallS: 1}
	for traced, defs := range map[bool][]metricDef{false: endToEnd, true: perLayer} {
		r, _ := summarize(w, traced, []passReport{p, {Index: 1, Mode: "traced", Workers: 2, WallS: 1}})
		if len(r.Metrics) != len(defs) {
			t.Errorf("trace %v: %d metrics reported, want %d", traced, len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := r.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("trace %v: metric %s reported as %+v", traced, d.name, m)
			}
		}
	}
}

// TestTracedPassesRepeat runs the cheap simulation workloads traced twice
// and untraced at one and at all workers: exact counts repeat, and the
// outputs are the same bit for bit.
func TestTracedPassesRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two simulation workloads")
	}
	workers := runtime.GOMAXPROCS(0)
	for _, name := range []string{"fig10-dar", "extloop-dar"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		var first passReport
		for i := 0; i < 2; i++ {
			p, err := runPass(w, 7, workers, true, root, "")
			if err != nil {
				t.Fatal(err)
			}
			if n := failedCount(p.Checks); n != 0 {
				t.Errorf("%s: %d failed checks: %+v", name, n, p.Checks)
			}
			if i == 0 {
				first = p
				continue
			}
			for _, k := range []string{"models.source_frames", "traffic.acf_lags", "runner.reps"} {
				if p.Layers[k] != first.Layers[k] {
					t.Errorf("%s: %s = %v then %v", name, k, first.Layers[k], p.Layers[k])
				}
			}
			if p.Digest != first.Digest {
				t.Errorf("%s: traced digests differ", name)
			}
		}
		if got := int64(first.Layers["models.source_frames"]); got != w.sourceFrames {
			t.Errorf("%s: source frames %d, want %d", name, got, w.sourceFrames)
		}
		for _, n := range []int{1, workers} {
			p, err := runPass(w, 7, n, false, root, "")
			if err != nil {
				t.Fatal(err)
			}
			if p.Digest != first.Digest {
				t.Errorf("%s: untraced digest at %d workers differs from traced", name, n)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Parent: -1, Start: 0, End: ms(100)},
		{Parent: 0, Start: ms(10), End: ms(50)}, // overlaps the next child
		{Parent: 0, Start: ms(40), End: ms(60)},
		{Parent: 0, Start: ms(90), End: ms(120)}, // runs past its parent
		{Parent: 1, Start: ms(20), End: ms(30)},
	}
	got := selfTimes(spans)
	want := []time.Duration{ms(100 - 50 - 10), ms(30), ms(20), ms(30), ms(10)}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	a := record{Workload: "fig8-vz", Host: hostStamp{CPUModel: "A", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"}}
	b := a
	b.Host.Revision = "other"
	if err := comparable(a, b); err != nil {
		t.Fatalf("same host, other revision: %v", err)
	}
	for _, change := range []func(*hostStamp){
		func(h *hostStamp) { h.CPUModel = "B" },
		func(h *hostStamp) { h.NumCPU = 4 },
		func(h *hostStamp) { h.GOMAXPROCS = 1 },
		func(h *hostStamp) { h.GoVersion = "go1.25.0" },
	} {
		c := a
		change(&c.Host)
		if err := comparable(a, c); err == nil {
			t.Errorf("compared records from different hosts: %+v vs %+v", a.Host, c.Host)
		}
	}
}
