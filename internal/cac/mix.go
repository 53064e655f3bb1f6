package cac

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/traffic"
)

// MixMeetsTarget reports whether a heterogeneous mix on the link satisfies
// the loss target under the Bahadur-Rao estimate.
func MixMeetsTarget(mix core.Mix, l Link, clrTarget float64) (bool, error) {
	return MixMeetsTargetEst(mix, l, clrTarget, BahadurRao)
}

// MixMeetsTargetEst is MixMeetsTarget with an explicit overflow estimator.
func MixMeetsTargetEst(mix core.Mix, l Link, clrTarget float64, e Estimator) (bool, error) {
	if err := l.Validate(); err != nil {
		return false, err
	}
	if clrTarget <= 0 || clrTarget >= 1 {
		return false, fmt.Errorf("cac: loss target %v outside (0, 1)", clrTarget)
	}
	if mix.MeanTotal() >= l.CellsPerFrame() {
		return false, nil // unstable: cannot meet any target
	}
	var (
		p   float64
		err error
	)
	switch e {
	case BahadurRao:
		p, err = core.MixBahadurRao(mix, l.CellsPerFrame(), l.BufferCells(), 0)
	case LargeN:
		p, err = core.MixLargeN(mix, l.CellsPerFrame(), l.BufferCells(), 0)
	default:
		return false, fmt.Errorf("cac: unknown estimator %d", int(e))
	}
	if err != nil {
		return false, err
	}
	return p <= clrTarget, nil
}

// MaxAdditional answers the online admission question: given the existing
// mix already on the link, how many more connections of model m can be
// admitted while keeping the Bahadur-Rao loss estimate at or below
// clrTarget? Returns 0 when none fit (including when the existing mix
// already violates the target).
func MaxAdditional(existing core.Mix, m traffic.Model, l Link, clrTarget float64) (int, error) {
	if err := l.Validate(); err != nil {
		return 0, err
	}
	if clrTarget <= 0 || clrTarget >= 1 {
		return 0, fmt.Errorf("cac: loss target %v outside (0, 1)", clrTarget)
	}
	if m == nil {
		return 0, fmt.Errorf("cac: nil model")
	}
	// Stability ceiling for the additional class.
	headroom := l.CellsPerFrame() - existing.MeanTotal()
	ceiling := int(headroom/m.Mean()) - 1
	if ceiling < 0 {
		ceiling = 0
	}
	meets := func(extra int) (bool, error) {
		mix := append(core.Mix{}, existing...)
		if extra > 0 {
			mix = append(mix, core.Component{Model: m, Count: extra})
		}
		if mix.TotalCount() == 0 {
			return true, nil // an idle link meets any target
		}
		return MixMeetsTarget(mix, l, clrTarget)
	}
	ok0, err := meets(0)
	if err != nil {
		return 0, err
	}
	if !ok0 || ceiling == 0 {
		return 0, nil
	}
	okCeil, err := meets(ceiling)
	if err != nil {
		return 0, err
	}
	if okCeil {
		return ceiling, nil
	}
	lo, hi := 0, ceiling // invariant: meets(lo), !meets(hi)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		ok, err := meets(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
