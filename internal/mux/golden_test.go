package mux

import (
	"encoding/json"
	"math"
	"os"
	"strconv"
	"testing"

	"repro/internal/models"
)

const goldenPathsFile = "testdata/paths.golden.json"

// goldenCase is one fixed-seed simulation whose outputs are pinned bit for
// bit in goldenPathsFile.
type goldenCase struct {
	name string
	run  func() ([]float64, error)
}

// resultBits flattens every field of a Result, in declaration order.
func resultBits(r Result) []float64 {
	return []float64{float64(r.Frames), r.ArrivedCells, r.LostCells, r.CLR,
		float64(r.LossFrames), r.MeanWorkload, r.MaxWorkload, r.FinalW, r.InitialW}
}

func bopBits(r BOPResult) []float64 {
	return append(append(append([]float64(nil), r.Thresholds...), r.Prob...), r.MaxW)
}

// goldenCases covers open-loop and closed-loop sources through Run and
// RunBOP, including warm-ups longer than one chunk (chunkFrames = 4096)
// and zero buffers.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	z975, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	z9, err := models.NewZ(0.9)
	if err != nil {
		t.Fatal(err)
	}
	dar1, err := models.FitS(z975, 1)
	if err != nil {
		t.Fatal(err)
	}
	aimdZ := aimdModel(t, 0.9)
	// A high set point keeps the DAR controller congested on zero and
	// infinite buffers, where utilization stands in for occupancy.
	aimdDAR, err := models.NewAIMD(dar1, models.AIMDConfig{Target: 0.98})
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg Config) func() ([]float64, error) {
		return func() ([]float64, error) {
			r, err := Run(cfg)
			return resultBits(r), err
		}
	}
	bop := func(cfg BOPConfig) func() ([]float64, error) {
		return func() ([]float64, error) {
			r, err := RunBOP(cfg)
			return bopBits(r), err
		}
	}
	thr := []float64{0, 50, 200, 1000}
	return []goldenCase{
		{"run/open/z0.975", run(Config{Model: z975, N: 10, C: 520, B: 30, Frames: 9000, Warmup: 500, Seed: 42})},
		{"run/open/z0.975-long-warmup", run(Config{Model: z975, N: 10, C: 520, B: 30, Frames: 6000, Warmup: 5000, Seed: 43})},
		{"run/open/dar1-b0", run(Config{Model: dar1, N: 12, C: 530, B: 0, Frames: 9000, Warmup: 300, Seed: 44})},
		{"run/closed/aimd-z0.9", run(Config{Model: aimdZ, N: 5, C: 505, B: 20, Frames: 9000, Warmup: 4500, Seed: 45})},
		{"run/closed/aimd-dar1-b0", run(Config{Model: aimdDAR, N: 6, C: 510, B: 0, Frames: 5000, Warmup: 200, Seed: 46})},
		{"bop/open/z0.9", bop(BOPConfig{Model: z9, N: 5, C: 510, Frames: 9000, Warmup: 300, Seed: 7, Thresholds: thr})},
		{"bop/open/dar1-long-warmup", bop(BOPConfig{Model: dar1, N: 8, C: 520, Frames: 6000, Warmup: 5000, Seed: 8, Thresholds: thr})},
		{"bop/closed/aimd-dar1", bop(BOPConfig{Model: aimdDAR, N: 5, C: 510, Frames: 6000, Warmup: 4200, Seed: 9, Thresholds: thr})},
	}
}

// TestPathsGolden pins the outputs of Run and RunBOP to values captured
// from the earlier two-path implementation (separate chunked and
// per-frame drain loops). Every float is compared by its bits (rtol 0). The test only reads the file: it pins the
// earlier implementation, so it is never regenerated from this code.
func TestPathsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	got := map[string][]string{}
	for _, gc := range goldenCases(t) {
		vals, err := gc.run()
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		bits := make([]string, len(vals))
		for i, v := range vals {
			bits[i] = strconv.FormatUint(math.Float64bits(v), 16)
		}
		got[gc.name] = bits
	}
	data, err := os.ReadFile(goldenPathsFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, the table has %d", len(want), len(got))
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: not in %s", name, goldenPathsFile)
			continue
		}
		if len(g) != len(w) {
			t.Errorf("%s: %d values, golden has %d", name, len(g), len(w))
			continue
		}
		for i := range g {
			if g[i] != w[i] {
				t.Errorf("%s: value %d has bits %s, golden %s", name, i, g[i], w[i])
				break
			}
		}
	}
}

// TestRunMatchesSingleBufferSweep checks that an open-loop Run and a
// one-buffer RunSweep, which drain the same arrival path through separate
// loops, agree bit for bit.
func TestRunMatchesSingleBufferSweep(t *testing.T) {
	z, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Model: z, N: 4, C: 520, B: 30, Frames: 6000, Warmup: 4500, Seed: 42},
		{Model: z, N: 4, C: 530, B: 0, Frames: 5000, Warmup: 100, Seed: 3},
	} {
		run, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sweep, err := RunSweep(cfg, []float64{cfg.B})
		if err != nil {
			t.Fatal(err)
		}
		if run != sweep[0] {
			t.Fatalf("B=%g: Run %+v != RunSweep %+v", cfg.B, run, sweep[0])
		}
	}
}
