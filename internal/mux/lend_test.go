package mux

import (
	"context"
	"math"
	"testing"

	"repro/internal/fgn"
	"repro/internal/models"
	"repro/internal/runner"
	"repro/internal/traffic"
)

// lendCase is one model of the lending bit-identity test, at a horizon
// whose measured span and warm-up both end mid-chunk.
type lendCase struct {
	model          traffic.Model
	frames, warmup int
}

func lendCases(t *testing.T) []lendCase {
	t.Helper()
	v, err := models.NewV(1.5)
	if err != nil {
		t.Fatal(err)
	}
	z, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	d, err := models.FitS(z, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := fgn.NewModel(0.9, models.Mean, models.Variance)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := traffic.NewReplay("trace", traffic.Generate(z.NewGenerator(11), 5000))
	if err != nil {
		t.Fatal(err)
	}
	const frames, warmup = 2*chunkFrames + 17, chunkFrames + 5
	return []lendCase{
		// V^1.5 costs about a millisecond per source-frame, so it runs a
		// short horizon; its warm-up and measured span are still
		// separate, ragged chunks.
		{v, 60, 7},
		{z, frames, warmup},
		{d, frames, warmup},
		{g, frames, warmup},
		{rep, frames, warmup},
	}
}

// sameBits reports whether two results agree in every field, floats
// compared by their bit patterns.
func sameBits(a, b Result) bool {
	fa := []float64{a.ArrivedCells, a.LostCells, a.CLR, a.MeanWorkload, a.MaxWorkload, a.FinalW, a.InitialW}
	fb := []float64{b.ArrivedCells, b.LostCells, b.CLR, b.MeanWorkload, b.MaxWorkload, b.FinalW, b.InitialW}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Frames == b.Frames && a.LossFrames == b.LossFrames
}

// TestLentFillBitIdentical runs one replication on a 1-worker engine,
// which never lends, and on a 4-worker engine, whose three idle lanes
// fill the replication's sources concurrently. Every Result field must
// match bit for bit, through both the coupled sweep and the engine loop.
func TestLentFillBitIdentical(t *testing.T) {
	ctx := context.Background()
	buffers := []float64{0, 10, 40}
	for _, tc := range lendCases(t) {
		name := tc.model.Name()
		cfg := Config{Model: tc.model, N: 3, C: 538, B: 10, Frames: tc.frames, Warmup: tc.warmup, Seed: 1996}

		serial, err := SweepReplicationsEngine(ctx, runner.New(1), cfg, buffers, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lent, err := SweepReplicationsEngine(ctx, runner.New(4), cfg, buffers, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for j := range serial {
			if !sameBits(serial[j][0], lent[j][0]) {
				t.Errorf("%s sweep buffer %v: serial %+v, lent %+v", name, buffers[j], serial[j][0], lent[j][0])
			}
		}

		one, err := RunReplicationsEngine(ctx, runner.New(1), cfg, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		four, err := RunReplicationsEngine(ctx, runner.New(4), cfg, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameBits(one[0], four[0]) {
			t.Errorf("%s engine: serial %+v, lent %+v", name, one[0], four[0])
		}
		if one[0].ArrivedCells == 0 {
			t.Errorf("%s: degenerate run, no arrivals", name)
		}
	}
}

// TestAggregatorLendsOnlyWithIdleLanes checks that the identity above is
// not vacuous: inside a replication of a 4-worker engine the aggregator
// borrows lanes and draws its per-source rows, while inside a 1-worker
// engine, or without a runner ctx, it draws none.
func TestAggregatorLendsOnlyWithIdleLanes(t *testing.T) {
	z, err := models.NewZ(0.9)
	if err != nil {
		t.Fatal(err)
	}
	gens, err := sourceGenerators(z, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	lent := func(ctx context.Context) bool {
		ba := newBlockAggregator(gens)
		defer ba.release()
		ba.ctx = ctx
		ba.next(100)
		return ba.rows != nil
	}
	if lent(nil) || lent(context.Background()) {
		t.Error("aggregator drew rows without a runner ctx")
	}
	for _, tc := range []struct {
		workers int
		want    bool
	}{{1, false}, {4, true}} {
		_, err := runner.Run(context.Background(), runner.New(tc.workers), runner.Spec{ID: "lend", Reps: 1},
			func(ctx context.Context, _ runner.Rep) (bool, error) {
				if got := lent(ctx); got != tc.want {
					t.Errorf("workers=%d: rows drawn = %v, want %v", tc.workers, got, tc.want)
				}
				return true, nil
			})
		if err != nil {
			t.Fatal(err)
		}
	}
}
