//go:build !race

// Allocation tests run without the race detector only: sync.Pool
// deliberately drops items under -race, so allocation counts change there.

package models

import (
	"testing"

	"repro/internal/fgn"
	"repro/internal/traffic"
)

// TestGeneratorAllocs pins the per-source hot path: a warmed generator of
// every family allocates nothing per Fill and nothing per NextFrame.
// testing.AllocsPerRun makes one warm-up call before it counts. The FBNDP
// families (V, L) fill short buffers to keep the test cheap. FGN draws its
// FFT scratch once per 65,536-frame synthesis block, outside the frames
// measured here.
func TestGeneratorAllocs(t *testing.T) {
	z, err := NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewV(1)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewL()
	if err != nil {
		t.Fatal(err)
	}
	s, err := FitS(z, 3)
	if err != nil {
		t.Fatal(err)
	}
	dar1, err := FitS(z, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := fgn.NewModel(0.9, Mean, Variance)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		model  traffic.Model
		frames int
	}{
		{z, 4096},
		{v, 64},
		{l, 64},
		{s, 4096},
		{dar1, 4096},
		{g, 4096},
	} {
		gen := tc.model.NewGenerator(1)
		buf := make([]float64, tc.frames)
		fill := traffic.Blocks(gen).Fill
		if a := testing.AllocsPerRun(10, func() { fill(buf) }); a != 0 {
			t.Errorf("%s: %v allocations per Fill of %d frames, want 0", tc.model.Name(), a, tc.frames)
		}
		if a := testing.AllocsPerRun(100, func() { gen.NextFrame() }); a != 0 {
			t.Errorf("%s: %v allocations per NextFrame, want 0", tc.model.Name(), a)
		}
	}
}

// TestAIMDAllocs pins the closed-loop wrapper: one NextFrame plus one
// Observe allocates nothing, including the frames that sample the rate
// histogram.
func TestAIMDAllocs(t *testing.T) {
	z, err := NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewAIMD(z, AIMDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	g := m.NewGenerator(1).(traffic.FeedbackGenerator)
	fb := traffic.Feedback{W: 40, Buffer: 100, Capacity: 520, Utilization: 0.9}
	step := func() {
		fb.Frame++
		fb.W = float64(fb.Frame % 100)
		g.Observe(fb)
		g.NextFrame()
	}
	if a := testing.AllocsPerRun(2*rateSampleStride, step); a != 0 {
		t.Errorf("AIMD: %v allocations per NextFrame+Observe, want 0", a)
	}
}
