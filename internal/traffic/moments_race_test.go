package traffic

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// acfModel is a minimal deterministic Model for concurrency tests.
type acfModel struct{}

func (acfModel) Name() string                 { return "acf-test" }
func (acfModel) Mean() float64                { return 100 }
func (acfModel) Variance() float64            { return 25 }
func (acfModel) NewGenerator(int64) Generator { return nil }
func (acfModel) ACF(k int) float64 {
	if k < 0 {
		k = -k
	}
	if k == 0 {
		return 1
	}
	return math.Pow(float64(k), -0.4) // LRD-like decay keeps sums non-trivial
}

// walkModel is acfModel with a lag-order walk, so Moments extends through
// WalkACF instead of ACF(k).
type walkModel struct{ acfModel }

func (w walkModel) WalkACF() func() float64 {
	k := 0
	return func() float64 {
		k++
		return w.ACF(k)
	}
}

// TestMomentsConcurrentAccess hammers one Moments view from many
// goroutines querying overlapping lag ranges in both directions — the
// access pattern of a parallel CTS sweep sharing one moment cache — for a
// model with and one without a walk. Run under -race this validates the
// locking and the lock-free Prefix snapshots; the value checks validate
// that concurrent extension never corrupts the prefix sums.
func TestMomentsConcurrentAccess(t *testing.T) {
	for _, m := range []Model{acfModel{}, walkModel{}} {
		t.Run(fmt.Sprintf("%T", m), func(t *testing.T) { testMomentsConcurrentAccess(t, m) })
	}
}

func testMomentsConcurrentAccess(t *testing.T, model Model) {
	mo := NewMoments(model)
	const (
		workers = 8
		maxM    = 600
	)
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Half the workers sweep upward, half downward, so cache
			// extension races with reads of already-cached prefixes.
			for i := 1; i <= maxM; i++ {
				m := i
				if w%2 == 1 {
					m = maxM - i + 1
				}
				got := mo.VarSum(m)
				want := directVarSum(acfModel{}, m)
				if math.Abs(got-want) > 1e-9*math.Abs(want) {
					errs <- "VarSum mismatch"
					return
				}
				if p := mo.Prefix(m - 1); p.Lags() < m-1 || p.VarSum(m) != got {
					errs <- "Prefix snapshot disagrees with VarSum"
					return
				}
				if r := mo.ACF(m); r != (acfModel{}).ACF(m) {
					errs <- "ACF mismatch"
					return
				}
				if av := mo.AggVariance(m); av < 0 {
					errs <- "negative AggVariance"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if got := mo.CachedLags(); got < maxM-1 {
		t.Errorf("cached lags = %d, want ≥ %d", got, maxM-1)
	}
}
