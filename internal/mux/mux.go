// Package mux simulates the paper's ATM multiplexer (§5.5): N homogeneous
// VBR video sources, frame-synchronised, with cells equispaced over each
// frame duration (deterministic smoothing) feeding a FIFO buffer drained at
// constant rate.
//
// Because arrivals and service are both fluid and uniform within a frame,
// the cell-level queue is captured exactly by a frame-level Lindley
// recursion with clipping:
//
//	loss_n = (W_n + A_n − C − B)^+
//	W_{n+1} = min((W_n + A_n − C)^+, B)
//
// where A_n is the aggregate frame volume (cells), C = N·c the service
// volume per frame, and B = N·b the total buffer. The finite-buffer run
// measures the cell loss rate CLR = Σ loss / Σ A; the infinite-buffer run
// measures the buffer overflow probability P(W > x) that the paper's
// large-deviations asymptotics estimate.
//
// Both runs are driven by one chunk-major frame loop (engine) around a
// single shared Lindley kernel (lindleyStep). Open-loop sources are
// generated in 4096-frame chunks; closed-loop sources
// (traffic.FeedbackGenerator) add their frames one at a time inside the
// chunk and see the post-frame queue state after every frame.
// The coupled buffer sweep (RunSweep) keeps its own multi-buffer loop.
package mux

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/runner"
	"repro/internal/seed"
	"repro/internal/stats"
	"repro/internal/traffic"

	"context"
)

// Config describes one finite-buffer simulation replication.
type Config struct {
	Model  traffic.Model
	N      int     // number of multiplexed sources
	C      float64 // bandwidth per source c, cells/frame
	B      float64 // buffer per source b, cells (total buffer N·b)
	Frames int     // simulated frames after warm-up
	Warmup int     // frames discarded before measurement
	Seed   int64
	// Ctx is the run's only instrumentation handle. When non-nil, the
	// span it carries (trace.FromContext) parents per-chunk "mux fill"
	// and "mux drain" spans, and its pprof labels (figure, model, sweep
	// point, lane — see internal/telemetry/prof) are merged with the
	// run's path label, so CPU samples attribute to experiment
	// coordinates. When the runner handed Ctx to a replication, it also
	// carries the engine, whose idle lanes then fill the open-loop
	// sources of each chunk concurrently (runner.Lend); the sources are
	// still summed in source order. A nil Ctx means no spans, no labels
	// and no lending. It changes only who computes and how it is
	// recorded: it never enters seeds, fingerprints or results.
	Ctx context.Context
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Model == nil {
		return fmt.Errorf("mux: nil model")
	}
	if c.N < 1 {
		return fmt.Errorf("mux: N = %d must be ≥ 1", c.N)
	}
	if c.C <= 0 {
		return fmt.Errorf("mux: bandwidth c = %v must be positive", c.C)
	}
	if c.B < 0 {
		return fmt.Errorf("mux: buffer b = %v must be non-negative", c.B)
	}
	if c.Frames < 1 {
		return fmt.Errorf("mux: frames = %d must be ≥ 1", c.Frames)
	}
	if c.Warmup < 0 {
		return fmt.Errorf("mux: warmup = %d must be non-negative", c.Warmup)
	}
	return nil
}

// Result summarises one finite-buffer replication.
type Result struct {
	Frames       int
	ArrivedCells float64
	LostCells    float64
	CLR          float64 // LostCells / ArrivedCells
	LossFrames   int     // frames during which any loss occurred
	MeanWorkload float64 // time-average workload, cells
	MaxWorkload  float64 // peak workload, cells
	FinalW       float64 // workload at measurement end (conservation checks)
	InitialW     float64 // workload at measurement start
}

// Run executes one finite-buffer replication. Source i uses a child seed
// derived from cfg.Seed, so replications are reproducible and sources
// mutually independent.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	gens, err := sourceGenerators(cfg.Model, cfg.N, cfg.Seed)
	if err != nil {
		return Result{}, err
	}
	eng := newEngine(gens, float64(cfg.N)*cfg.C, float64(cfg.N)*cfg.B)
	defer eng.release()
	return eng.run(cfg.Ctx, cfg.Warmup, cfg.Frames, nil), nil
}

// ChildSeeds derives n per-source seeds from a master seed via the
// splitmix64 hash of (master, source index). The derivation is shared with
// package cellsim so fluid and cell-level simulations of the same
// configuration see statistically identical arrival processes, and it is
// index-addressed rather than stream-drawn so any subset of sources can be
// re-derived independently.
func ChildSeeds(masterSeed int64, n int) []int64 {
	return seed.Children(masterSeed, n)
}

// sourceGenerators builds N independent generators with seeds derived from
// a master seed. A model returning a nil generator (e.g. an unfitted or
// partially-constructed wrapper) is reported as an error rather than left
// to panic frames later inside the simulation loop.
func sourceGenerators(m traffic.Model, n int, sd int64) ([]traffic.Generator, error) {
	seeds := ChildSeeds(sd, n)
	gens := make([]traffic.Generator, n)
	for i := range gens {
		g := m.NewGenerator(seeds[i])
		if g == nil {
			return nil, fmt.Errorf("mux: model %q returned nil generator for source %d (seed %d)",
				m.Name(), i, seeds[i])
		}
		gens[i] = g
	}
	return gens, nil
}

// RunReplications executes reps independent replications (the paper runs
// 60), deriving the seed of replication i as the splitmix64 hash of
// (cfg.Seed, "mux/reps", i) so any replication can be reproduced in
// isolation.
func RunReplications(cfg Config, reps int) ([]Result, error) {
	if reps < 1 {
		return nil, fmt.Errorf("mux: reps = %d must be ≥ 1", reps)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := make([]Result, reps)
	for i := range out {
		c := cfg
		c.Seed = seed.DeriveString(cfg.Seed, "mux/reps", uint64(i))
		res, err := Run(c)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// RunReplicationsEngine executes reps independent replications of Run on
// the orchestration engine's worker pool. Replication i always runs with
// the splitmix64-derived seed of (cfg.Seed, job, i), so the output is
// bit-identical for every worker count — including for closed-loop
// configurations, whose feedback dynamics are confined to each
// replication's own serial step loop.
//
// This is the replication fan-out for configurations that cannot share a
// coupled buffer sweep (closed-loop sources, where the queue state feeds
// back into generation and therefore depends on the buffer size).
func RunReplicationsEngine(ctx context.Context, eng *runner.Engine, cfg Config, reps int) ([]Result, error) {
	if reps < 1 {
		return nil, fmt.Errorf("mux: reps = %d must be ≥ 1", reps)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spec := runner.Spec{
		ID:         "mux/clr/" + cfg.Model.Name(),
		Reps:       reps,
		MasterSeed: cfg.Seed,
		Fingerprint: fmt.Sprintf("mux/clr|model=%s|N=%d|c=%g|b=%g|frames=%d|warmup=%d",
			cfg.Model.Name(), cfg.N, cfg.C, cfg.B, cfg.Frames, cfg.Warmup),
	}
	return runner.Run(ctx, eng, spec, func(ctx context.Context, r runner.Rep) (Result, error) {
		c := cfg
		c.Seed = r.Seed
		c.Ctx = ctx // carries the replication span, the runner's lane label and the drivers' coordinates
		res, err := Run(c)
		if err != nil {
			return Result{}, err
		}
		r.AddUnits(int64(c.Frames))
		return res, nil
	})
}

// CLREstimate pools replication results into a ratio estimate of the cell
// loss rate with a replication confidence interval. An empty results slice
// yields the defined zero-value estimate (point 0, zero half-width,
// NumObs 0) rather than propagating NaNs into downstream figures.
func CLREstimate(results []Result, level float64) stats.CI {
	if len(results) == 0 {
		return stats.CI{Level: level}
	}
	clrs := make([]float64, len(results))
	for i, r := range results {
		clrs[i] = r.CLR
	}
	return stats.ReplicationCI(clrs, level)
}

// BOPConfig describes an infinite-buffer overflow probability measurement.
type BOPConfig struct {
	Model      traffic.Model
	N          int
	C          float64 // bandwidth per source, cells/frame
	Frames     int     // measured frames
	Warmup     int     // discarded frames
	Seed       int64
	Thresholds []float64 // workload levels x (total cells) for P(W > x)
	// Ctx carries the parent span and pprof labels; see Config.Ctx.
	Ctx context.Context
}

// Validate checks the configuration.
func (c BOPConfig) Validate() error {
	if c.Model == nil {
		return fmt.Errorf("mux: nil model")
	}
	if c.N < 1 || c.C <= 0 || c.Frames < 1 || c.Warmup < 0 {
		return fmt.Errorf("mux: invalid BOP config N=%d c=%v frames=%d warmup=%d",
			c.N, c.C, c.Frames, c.Warmup)
	}
	if len(c.Thresholds) == 0 {
		return fmt.Errorf("mux: no thresholds")
	}
	for _, x := range c.Thresholds {
		if x < 0 {
			return fmt.Errorf("mux: negative threshold %v", x)
		}
	}
	return nil
}

// BOPResult reports tail probabilities of the stationary workload.
type BOPResult struct {
	Thresholds []float64
	Prob       []float64 // P(W > threshold), fraction of measured frames
	MaxW       float64
}

// RunBOP simulates the infinite-buffer workload recursion and estimates
// P(W > x) at each threshold as the fraction of frame boundaries whose
// workload exceeds x. Closed-loop sources see feedback with Buffer = +Inf
// and zero loss — the congestion signal is utilization alone.
func RunBOP(cfg BOPConfig) (BOPResult, error) {
	if err := cfg.Validate(); err != nil {
		return BOPResult{}, err
	}
	thr := append([]float64(nil), cfg.Thresholds...)
	sort.Float64s(thr)
	eng, err := newBOPEngine(cfg)
	if err != nil {
		return BOPResult{}, err
	}
	defer eng.release()
	counts := make([]int, len(thr))
	r := eng.run(cfg.Ctx, cfg.Warmup, cfg.Frames, func(ws []float64) {
		for _, w := range ws {
			// Bump counts[k] for every sorted threshold thr[k] below w.
			for j := len(thr) - 1; j >= 0; j-- {
				if w > thr[j] {
					for k := 0; k <= j; k++ {
						counts[k]++
					}
					break
				}
			}
		}
	})
	res := BOPResult{Thresholds: thr, Prob: make([]float64, len(thr)), MaxW: r.MaxWorkload}
	for i, c := range counts {
		res.Prob[i] = float64(c) / float64(cfg.Frames)
	}
	return res, nil
}

// newBOPEngine builds the infinite-buffer engine for cfg.
func newBOPEngine(cfg BOPConfig) (*engine, error) {
	gens, err := sourceGenerators(cfg.Model, cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return newEngine(gens, float64(cfg.N)*cfg.C, math.Inf(1)), nil
}
