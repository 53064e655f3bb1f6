package mux

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/seed"
	"repro/internal/traffic"
)

// MixConfig describes a heterogeneous finite-buffer simulation: several
// traffic classes sharing one link (total capacity and total buffer given
// directly in cells).
type MixConfig struct {
	Mix    core.Mix
	TotalC float64 // link capacity, cells/frame
	TotalB float64 // buffer, cells
	Frames int
	Warmup int
	Seed   int64
}

// Validate checks the configuration.
func (c MixConfig) Validate() error {
	if err := c.Mix.Validate(); err != nil {
		return err
	}
	if c.TotalC <= 0 {
		return fmt.Errorf("mux: capacity %v must be positive", c.TotalC)
	}
	if c.TotalB < 0 {
		return fmt.Errorf("mux: buffer %v must be non-negative", c.TotalB)
	}
	if c.Frames < 1 || c.Warmup < 0 {
		return fmt.Errorf("mux: invalid horizon frames=%d warmup=%d", c.Frames, c.Warmup)
	}
	return nil
}

// RunMix executes one heterogeneous replication with the same fluid
// Lindley dynamics and the same frame loop as Run. A mix may combine open-
// and closed-loop classes: open-loop components keep their chunked block
// fills, closed-loop ones add their frames one at a time.
func RunMix(cfg MixConfig) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	// Source k (counted across the whole mix) gets seed.Derive(Seed, k) —
	// the same derivation as ChildSeeds, so a homogeneous mix reproduces
	// Run exactly and each class sees the same seeds regardless of how
	// the mix is partitioned into components.
	var gens []traffic.Generator
	var k uint64
	for _, comp := range cfg.Mix {
		for i := 0; i < comp.Count; i++ {
			g := comp.Model.NewGenerator(seed.Derive(cfg.Seed, k))
			if g == nil {
				return Result{}, fmt.Errorf("mux: model %q returned nil generator for mix source %d",
					comp.Model.Name(), k)
			}
			gens = append(gens, g)
			k++
		}
	}
	eng := newEngine(gens, cfg.TotalC, cfg.TotalB)
	defer eng.release()
	return eng.run(nil, cfg.Warmup, cfg.Frames, nil), nil
}
