//go:build !race

// Allocation tests run without the race detector only: sync.Pool
// deliberately drops items under -race, so allocation counts change there.

package mux

import (
	"testing"

	"repro/internal/dar"
	"repro/internal/models"
	"repro/internal/traffic"
)

// TestRunAllocsIndependentOfHorizon pins the frame loop: with tracing off,
// a run's allocations (generators, pooled chunk buffers, results) are paid
// once per run, so a run of one chunk after a one-chunk warm-up allocates
// exactly as much as a run of ten chunks after ten. Any per-chunk or
// per-frame allocation in the chunk fill, the Lindley drain or the sweep
// loop adds at least nine to the longer run. Cheap DAR(1) sources keep the
// long runs short; the closed-loop cases wrap them in AIMD, which RunSweep
// rejects.
func TestRunAllocsIndependentOfHorizon(t *testing.T) {
	d, err := dar.NewDAR1(0.9, dar.GaussianMarginal(models.Mean, models.Variance))
	if err != nil {
		t.Fatal(err)
	}
	aimd, err := models.NewAIMD(d, models.AIMDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(m traffic.Model, frames int) error {
		_, err := Run(Config{Model: m, N: 3, C: 520, B: 30, Frames: frames, Warmup: frames, Seed: 1})
		return err
	}
	bop := func(m traffic.Model, frames int) error {
		_, err := RunBOP(BOPConfig{Model: m, N: 3, C: 520, Frames: frames, Warmup: frames, Seed: 1,
			Thresholds: []float64{0, 50, 200}})
		return err
	}
	sweep := func(m traffic.Model, frames int) error {
		_, err := RunSweep(Config{Model: m, N: 3, C: 520, Frames: frames, Warmup: frames, Seed: 1},
			[]float64{0, 10, 30})
		return err
	}
	for _, tc := range []struct {
		name  string
		model traffic.Model
		run   func(traffic.Model, int) error
	}{
		{"Run/open", d, run},
		{"Run/closed", aimd, run},
		{"RunBOP/open", d, bop},
		{"RunBOP/closed", aimd, bop},
		{"RunSweep/open", d, sweep},
	} {
		allocs := func(chunks int) float64 {
			return testing.AllocsPerRun(5, func() {
				if err := tc.run(tc.model, chunks*chunkFrames); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
			})
		}
		if one, ten := allocs(1), allocs(10); one != ten {
			t.Errorf("%s: %v allocations per run at 1 chunk, %v at 10 chunks; want equal",
				tc.name, one, ten)
		}
	}
}
