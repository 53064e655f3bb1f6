package core

import (
	"math"
	"reflect"
	"sync"

	"repro/internal/diag"
	"repro/internal/solver"
	"repro/internal/traffic"
)

// Numerical-health probes over the asymptotic estimates: a rate function
// gone NaN (broken ACF) or a probability underflowing to exact zero
// (N·I(c,b) past ~745) is counted rather than silently plotted.
var (
	probeRate = diag.NewProbe("core.RateFunction")
	probeProb = diag.NewProbe("core.OverflowProb")
)

// momentsCache maps comparable models to their shared traffic.Moments
// view, so every CTS scan, asymptotic estimate and admission-control
// search against the same model reuses one memoised ACF prefix-sum table
// instead of re-walking the ACF from lag 1.
var momentsCache sync.Map // traffic.Model → *traffic.Moments

// Moments returns the shared cached second-order view of m. Calls with
// the same (comparable) model value return the same *traffic.Moments;
// models of non-comparable dynamic type get a private, unshared view.
// Passing a *traffic.Moments returns it unchanged.
func Moments(m traffic.Model) *traffic.Moments {
	if mo, ok := m.(*traffic.Moments); ok {
		return mo
	}
	if m == nil || !reflect.TypeOf(m).Comparable() {
		return traffic.NewMoments(m)
	}
	if v, ok := momentsCache.Load(m); ok {
		return v.(*traffic.Moments)
	}
	v, _ := momentsCache.LoadOrStore(m, traffic.NewMoments(m))
	return v.(*traffic.Moments)
}

// prefixChunk is how many lags past its current need a CTS scan extends
// the moments view at a time.
const prefixChunk = 4096

// CTSMoments computes the critical time scale against a cached moment
// view: each objective evaluation is O(1) after the one-time lag
// extension, so sweeping many operating points against one model costs
// one ACF walk total. The scan and stopping rule are identical to CTS
// (growFactor 4, slack 64, stopFactor 3), and the results are
// bit-identical to the incremental VarianceOfSum evaluation.
func CTSMoments(mo *traffic.Moments, op Operating, maxM int) (CTSResult, error) {
	if err := op.Validate(mo); err != nil {
		return CTSResult{}, err
	}
	if maxM <= 0 {
		maxM = DefaultMaxM
	}
	drift := op.C - mo.Mean()
	// The scan reads V(1), V(2), … in order, so it works from a snapshot of
	// the prefix tables and locks the view again only when it runs off the
	// end, extending by at most prefixChunk lags past what it needs.
	var pre traffic.Prefix
	obj := func(m int) float64 {
		if m-1 > pre.Lags() {
			pre = mo.Prefix(min(m-1+prefixChunk, maxM-1))
		}
		num := op.B + float64(m)*drift
		return num * num / (2 * pre.VarSum(m))
	}
	best, ok := solver.IntArgminSlack(obj, maxM, 4, 64, 3)
	probeRate.Check(best.Value)
	return CTSResult{M: best.Arg, Rate: best.Value, Converged: ok}, nil
}

// RateFunctionMoments returns I(c,b) alone; see CTSMoments.
func RateFunctionMoments(mo *traffic.Moments, op Operating, maxM int) (float64, error) {
	res, err := CTSMoments(mo, op, maxM)
	return res.Rate, err
}

// BahadurRaoMoments is BahadurRao against a cached moment view.
func BahadurRaoMoments(mo *traffic.Moments, op Operating, maxM int) (float64, error) {
	res, err := CTSMoments(mo, op, maxM)
	if err != nil {
		return 0, err
	}
	return brFromTotalRate(float64(op.N) * res.Rate), nil
}

// LargeNMoments is LargeN against a cached moment view.
func LargeNMoments(mo *traffic.Moments, op Operating, maxM int) (float64, error) {
	res, err := CTSMoments(mo, op, maxM)
	if err != nil {
		return 0, err
	}
	p := math.Exp(-float64(op.N) * res.Rate)
	probeProb.CheckPositive(p)
	return p, nil
}
