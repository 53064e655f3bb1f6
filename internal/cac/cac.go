// Package cac performs connection admission control for ATM multiplexers
// of VBR video sources: given a link capacity, a delay (buffer) bound and a
// cell-loss-rate target, how many connections can be admitted?
//
// This quantifies the paper's closing observation (§5.4): differences of an
// order of magnitude in estimated loss probability translate into a
// difference of at most a connection or two in admissible load, which is
// why a DAR(1) model is good enough for real-time admission control of LRD
// video traffic.
package cac

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/solver"
	"repro/internal/traffic"
)

// Link describes the multiplexer resources.
type Link struct {
	// CellsPerSec is the link capacity in cells/sec.
	CellsPerSec float64
	// Ts is the video frame duration in seconds.
	Ts float64
	// Delay is the maximum queueing delay allowed, in seconds. The buffer
	// holds Delay × CellsPerSec cells.
	Delay float64
}

// Validate checks the link description.
func (l Link) Validate() error {
	if l.CellsPerSec <= 0 {
		return fmt.Errorf("cac: capacity %v must be positive", l.CellsPerSec)
	}
	if l.Ts <= 0 {
		return fmt.Errorf("cac: frame duration %v must be positive", l.Ts)
	}
	if l.Delay < 0 {
		return fmt.Errorf("cac: delay bound %v must be non-negative", l.Delay)
	}
	return nil
}

// LinkMs builds a Link from the units the CLIs speak: capacity in cells/sec, frame duration in seconds and the delay
// bound in milliseconds. Every front end constructs links through this one
// helper so the ms→s conversion cannot drift between them.
func LinkMs(cellsPerSec, ts, delayMs float64) Link {
	return Link{CellsPerSec: cellsPerSec, Ts: ts, Delay: delayMs / 1000}
}

// CellsPerFrame returns the link capacity in cells/frame.
func (l Link) CellsPerFrame() float64 { return l.CellsPerSec * l.Ts }

// BufferCells returns the total buffer in cells implied by the delay bound.
func (l Link) BufferCells() float64 { return l.CellsPerSec * l.Delay }

// Estimator selects the overflow estimate used for admission.
type Estimator int

const (
	// BahadurRao uses the refined asymptotic (paper Eq. 7).
	BahadurRao Estimator = iota
	// LargeN uses exp(−N·I) only.
	LargeN
)

func (e Estimator) String() string {
	switch e {
	case BahadurRao:
		return "bahadur-rao"
	case LargeN:
		return "large-N"
	default:
		return fmt.Sprintf("estimator(%d)", int(e))
	}
}

// ParseEstimator resolves the estimator names the front ends accept
// ("br"/"bahadur-rao" and "largen"/"large-n", case-insensitive). It is the
// single name→Estimator mapping the front ends share, so they cannot
// accept different vocabularies.
func ParseEstimator(name string) (Estimator, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "br", "bahadur-rao", "bahadurrao":
		return BahadurRao, nil
	case "largen", "large-n":
		return LargeN, nil
	default:
		return 0, fmt.Errorf("cac: unknown estimator %q (want br|bahadur-rao or largen|large-n)", name)
	}
}

// estimate evaluates the chosen overflow estimator at the operating point
// against a cached moment view, so the admission binary search shares one
// ACF lag table across all the operating points it probes.
func estimate(e Estimator, mo *traffic.Moments, op core.Operating) (float64, error) {
	switch e {
	case BahadurRao:
		return core.BahadurRaoMoments(mo, op, 0)
	case LargeN:
		return core.LargeNMoments(mo, op, 0)
	default:
		return 0, fmt.Errorf("cac: unknown estimator %d", int(e))
	}
}

// Admissible returns the largest number of homogeneous connections of
// model m the link can carry with estimated overflow probability at most
// clrTarget. It returns 0 when even a single connection misses the target.
//
// The link's capacity and buffer are shared equally: per-source bandwidth
// c = capacity/N and per-source buffer b = buffer/N, so the estimated loss
// is monotone non-decreasing in N and a binary search applies.
func Admissible(m traffic.Model, l Link, clrTarget float64, e Estimator) (int, error) {
	if err := l.Validate(); err != nil {
		return 0, err
	}
	if clrTarget <= 0 || clrTarget >= 1 {
		return 0, fmt.Errorf("cac: loss target %v outside (0, 1)", clrTarget)
	}
	// Stability ceiling: N·μ < capacity.
	ceiling := int(l.CellsPerFrame()/m.Mean()) - 1
	if ceiling < 1 {
		return 0, nil
	}
	mo := core.Moments(m)
	meets := func(n int) (bool, error) {
		op := core.Operating{
			C: l.CellsPerFrame() / float64(n),
			B: l.BufferCells() / float64(n),
			N: n,
		}
		p, err := estimate(e, mo, op)
		if err != nil {
			return false, err
		}
		return p <= clrTarget, nil
	}
	ok1, err := meets(1)
	if err != nil {
		return 0, err
	}
	if !ok1 {
		return 0, nil
	}
	okCeil, err := meets(ceiling)
	if err != nil {
		return 0, err
	}
	if okCeil {
		return ceiling, nil
	}
	lo, hi := 1, ceiling // invariant: meets(lo), !meets(hi)
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

// EffectiveBandwidth returns the smallest per-source bandwidth c (in
// cells/frame) at which N multiplexed sources of model m meet clrTarget
// with per-source buffer b. This is the operational effective-bandwidth
// notion the paper discusses: for Markov input it is nearly independent of
// N; for LRD input Eq. 6 shows it would not be, over asymptotically large
// buffers.
func EffectiveBandwidth(m traffic.Model, n int, b, clrTarget float64) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("cac: N = %d must be ≥ 1", n)
	}
	if b < 0 {
		return 0, fmt.Errorf("cac: buffer %v must be non-negative", b)
	}
	if clrTarget <= 0 || clrTarget >= 1 {
		return 0, fmt.Errorf("cac: loss target %v outside (0, 1)", clrTarget)
	}
	logTarget := math.Log(clrTarget)
	mo := core.Moments(m)
	f := func(c float64) float64 {
		p, err := core.BahadurRaoMoments(mo, core.Operating{C: c, B: b, N: n}, 0)
		if err != nil || p <= 0 {
			return math.Inf(-1)
		}
		return math.Log(p) - logTarget
	}
	lo := m.Mean() * (1 + 1e-9)
	// The loss estimate at c → μ approaches 1; expand hi until the target
	// is met (μ + 12σ covers any plausible target).
	hi := m.Mean() + 12*math.Sqrt(m.Variance())
	if f(hi) > 0 {
		return 0, fmt.Errorf("cac: target %v unreachable below peak-rate allocation", clrTarget)
	}
	c, err := solver.Bisect(f, lo, hi, 1e-6*m.Mean())
	if err != nil {
		return 0, fmt.Errorf("cac: effective bandwidth search: %w", err)
	}
	return c, nil
}
