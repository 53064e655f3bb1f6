package traffic

import (
	"slices"
	"sync"
)

// Moments is a cached second-order view of a Model: memoised
// autocorrelations together with their prefix sums, from which the
// variance-time function V(m) = Var(Σ_{i=1..m} Y_i) is available in O(1)
// per query after a one-time O(m) extension.
//
// The critical-time-scale search, the Bahadur-Rao and large-N asymptotics,
// admission control and every analytic sweep in this repository evaluate
// V(m) over the same lag range at many operating points; sharing one
// Moments per model turns those repeated ACF partial-sum scans into cheap
// array lookups. The accumulation order matches the incremental
// core.VarianceOfSum evaluator exactly, so cached and direct computations
// agree bit for bit. Models that implement ACFWalker are walked in lag
// order, one call per lag; others are queried through ACF(k).
//
// Moments itself implements Model (delegating Name and NewGenerator to the
// wrapped model), so it can be passed anywhere a Model is expected. It is
// safe for concurrent use; Mean and Variance are captured at construction,
// which assumes the wrapped model's moments are immutable — true for every
// model in this repository.
type Moments struct {
	model  Model
	mean   float64
	sigma2 float64

	mu   sync.Mutex
	next func() float64 // yields r(len(r)), then the lag after it, …
	r    []float64      // r[k]: memoised ACF, r[0] = 1
	s1   []float64      // s1[k] = Σ_{i=1..k} r(i)
	s2   []float64      // s2[k] = Σ_{i=1..k} i·r(i)
}

// ACFWalker is implemented by models that can yield their autocorrelations
// in lag order more cheaply than by random access. Each call to WalkACF
// starts a fresh walk: the returned function yields r(1) on its first
// call, r(2) on its second, and so on, each equal to ACF(k) bit for bit.
// A walk is not safe for concurrent use.
type ACFWalker interface {
	WalkACF() func() float64
}

// walkACF returns a lag-order walk over m's ACF starting at lag 1: m's own
// walk when it has one, else successive ACF(k) calls.
func walkACF(m Model) func() float64 {
	if w, ok := m.(ACFWalker); ok {
		return w.WalkACF()
	}
	k := 0
	return func() float64 {
		k++
		return m.ACF(k)
	}
}

// NewMoments wraps m in a fresh cached view. If m is itself a *Moments the
// same view is returned rather than stacking a second cache.
func NewMoments(m Model) *Moments {
	if mo, ok := m.(*Moments); ok {
		return mo
	}
	return &Moments{
		model:  m,
		mean:   m.Mean(),
		sigma2: m.Variance(),
		next:   walkACF(m),
		r:      []float64{1},
		s1:     []float64{0},
		s2:     []float64{0},
	}
}

// Model returns the wrapped model.
func (mo *Moments) Model() Model { return mo.model }

// Name implements Model.
func (mo *Moments) Name() string { return mo.model.Name() }

// Mean implements Model.
func (mo *Moments) Mean() float64 { return mo.mean }

// Variance implements Model.
func (mo *Moments) Variance() float64 { return mo.sigma2 }

// NewGenerator implements Model by delegating to the wrapped model.
func (mo *Moments) NewGenerator(seed int64) Generator {
	return mo.model.NewGenerator(seed)
}

// extend grows the memo through lag k. Callers must hold mo.mu.
func (mo *Moments) extend(k int) {
	// Double the capacity up front: append grows large slices by ~1.25×,
	// and over the millions of lags an LRD model needs, its extra copies
	// cost time and peak memory (the analytic figures peak ~130 MB higher).
	if n := k + 1; n > cap(mo.r) {
		n = max(n, 2*cap(mo.r))
		mo.r = slices.Grow(mo.r, n-len(mo.r))
		mo.s1 = slices.Grow(mo.s1, n-len(mo.s1))
		mo.s2 = slices.Grow(mo.s2, n-len(mo.s2))
	}
	s1, s2 := mo.s1[len(mo.s1)-1], mo.s2[len(mo.s2)-1]
	for lag := len(mo.r); lag <= k; lag++ {
		rv := mo.next()
		s1 += rv
		s2 += float64(lag) * rv
		mo.r = append(mo.r, rv)
		mo.s1 = append(mo.s1, s1)
		mo.s2 = append(mo.s2, s2)
	}
}

// ACF implements Model with memoisation.
func (mo *Moments) ACF(k int) float64 {
	if k < 0 {
		k = -k
	}
	mo.mu.Lock()
	if k >= len(mo.r) {
		mo.extend(k)
	}
	v := mo.r[k]
	mo.mu.Unlock()
	return v
}

// SumACF returns Σ_{i=1..k} r(i), the ACF prefix sum (0 for k ≤ 0).
func (mo *Moments) SumACF(k int) float64 {
	if k <= 0 {
		return 0
	}
	mo.mu.Lock()
	if k >= len(mo.r) {
		mo.extend(k)
	}
	v := mo.s1[k]
	mo.mu.Unlock()
	return v
}

// VarSum returns the variance-time function
//
//	V(m) = σ²·[m + 2·Σ_{i=1..m−1} (m−i)·r(i)]
//	     = σ²·[m + 2·(m·s1(m−1) − s2(m−1))]
//
// in O(1) once lags through m−1 are cached (0 for m ≤ 0). This is the
// quantity the rate function I(c,b) = inf_m [b+m(c−μ)]²/2V(m) minimises
// over, evaluated thousands of times per CTS sweep.
func (mo *Moments) VarSum(m int) float64 {
	if m < 1 {
		return 0
	}
	mo.mu.Lock()
	if m-1 >= len(mo.r) {
		mo.extend(m - 1)
	}
	s1, s2 := mo.s1[m-1], mo.s2[m-1]
	mo.mu.Unlock()
	return varSum(mo.sigma2, m, s1, s2)
}

// varSum is the one V(m) expression every cached path evaluates, from the
// prefix sums s1(m−1) and s2(m−1).
func varSum(sigma2 float64, m int, s1, s2 float64) float64 {
	fm := float64(m)
	return sigma2 * (fm + 2*(fm*s1-s2))
}

// Prefix is a lock-free snapshot of a Moments view's prefix tables. The
// tables only ever grow by appending, so the entries a snapshot covers
// never change and any number of goroutines may read them while the view
// keeps extending.
type Prefix struct {
	sigma2 float64
	s1, s2 []float64
}

// Prefix extends the view through lag k and returns a snapshot of every
// lag cached so far, which covers at least 0..k. A scan that reads V(m)
// for increasing m takes one lock per snapshot instead of one per query.
func (mo *Moments) Prefix(k int) Prefix {
	mo.mu.Lock()
	if k >= len(mo.r) {
		mo.extend(k)
	}
	p := Prefix{sigma2: mo.sigma2, s1: mo.s1, s2: mo.s2}
	mo.mu.Unlock()
	return p
}

// Lags reports the largest lag the snapshot covers (−1 for the zero
// Prefix); VarSum is defined through m = Lags()+1.
func (p Prefix) Lags() int { return len(p.s1) - 1 }

// VarSum returns V(m) exactly as Moments.VarSum does, for 1 ≤ m ≤ Lags()+1
// (0 for m ≤ 0).
func (p Prefix) VarSum(m int) float64 {
	if m < 1 {
		return 0
	}
	return varSum(p.sigma2, m, p.s1[m-1], p.s2[m-1])
}

// AggVariance returns Var(X̄_m) = V(m)/m², the variance of the m-frame
// aggregated mean — the curve whose log-log slope 2H−2 defines long-range
// dependence on a variance-time plot.
func (mo *Moments) AggVariance(m int) float64 {
	if m < 1 {
		return 0
	}
	fm := float64(m)
	return mo.VarSum(m) / (fm * fm)
}

// CachedLags reports how many lags are currently memoised (diagnostics).
func (mo *Moments) CachedLags() int {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	return len(mo.r) - 1
}
