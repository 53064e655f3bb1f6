package core

import (
	"sync"
	"testing"

	"repro/internal/models"
	"repro/internal/traffic"
)

// sliceModel is deliberately non-comparable (slice field, value receiver)
// to exercise the registry's comparability guard.
type sliceModel struct {
	w whiteNoise
	r []float64
}

func (s sliceModel) Name() string                              { return "slice" }
func (s sliceModel) Mean() float64                             { return s.w.Mean() }
func (s sliceModel) Variance() float64                         { return s.w.Variance() }
func (s sliceModel) ACF(k int) float64                         { return s.w.ACF(k) }
func (s sliceModel) NewGenerator(seed int64) traffic.Generator { return nil }

func TestMomentsRegistry(t *testing.T) {
	p := mustDAR1(t, 0.8)
	mo := Moments(p)
	if mo == nil {
		t.Fatal("nil moments view")
	}
	if Moments(p) != mo {
		t.Fatal("same model did not share its cached view")
	}
	if Moments(mo) != mo {
		t.Fatal("a *Moments should be returned unchanged")
	}
	q := mustDAR1(t, 0.8)
	if Moments(q) == mo {
		t.Fatal("distinct model values must not share a view")
	}
	// Non-comparable dynamic types fall back to private views without
	// panicking on the map key.
	s := sliceModel{w: whiteNoise{500, 5000}, r: []float64{1}}
	a, b := Moments(s), Moments(s)
	if a == nil || b == nil || a == b {
		t.Fatal("non-comparable model should get fresh private views")
	}
}

// TestCTSMomentsBitIdentical re-runs the legacy incremental scan —
// VarianceOfSum advanced lag by lag with the stop rule inline, reading the
// model's ACF(k) one lag at a time — and demands exact equality with the
// cached-Moments path, which walks the ACF and scans prefix snapshots. It
// covers a Markov model, both LRD composites, the exact-LRD L and a DAR(3)
// fit at several operating points. At the larger buffers V^1.5 never meets
// the stop rule, so its scans run to maxM; those scans and L's largest
// buffer run past 1e5 lags.
func TestCTSMomentsBitIdentical(t *testing.T) {
	z, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	v, err := models.NewV(1.5)
	if err != nil {
		t.Fatal(err)
	}
	l, err := models.NewL()
	if err != nil {
		t.Fatal(err)
	}
	d3, err := models.FitS(z, 3)
	if err != nil {
		t.Fatal(err)
	}
	small := []float64{0, 10, 100, 1000}
	for _, c := range []struct {
		m    traffic.Model
		maxM int
		bufs []float64
	}{
		{mustDAR1(t, 0.9), DefaultMaxM, small},
		{z, DefaultMaxM, small},
		{v, 1 << 17, small},
		{l, DefaultMaxM, append(small, 2e5)},
		{d3, DefaultMaxM, small},
	} {
		m := c.m
		for _, b := range c.bufs {
			op := Operating{C: 538, B: b, N: 30}
			legacy := func() CTSResult {
				acc := NewVarianceOfSum(m)
				drift := op.C - m.Mean()
				obj := func(mm int) float64 {
					num := op.B + float64(mm)*drift
					return num * num / (2 * acc.Value())
				}
				best := CTSResult{M: 1, Rate: obj(1)}
				for mm := 2; mm <= c.maxM; mm++ {
					acc.Advance()
					val := obj(mm)
					if val < best.Rate {
						best.M, best.Rate = mm, val
						continue
					}
					if mm >= 4*best.M+64 && val >= 3*best.Rate {
						best.Converged = true
						return best
					}
				}
				return best
			}()
			got, err := CTS(m, op, c.maxM)
			if err != nil {
				t.Fatal(err)
			}
			if got != legacy {
				t.Fatalf("%s b=%v: CTS %+v != legacy incremental scan %+v",
					m.Name(), b, got, legacy)
			}
		}
	}
	if n := Moments(l).CachedLags(); n <= 1e5 {
		t.Fatalf("L's largest buffer scanned %d lags, want > 1e5", n)
	}
}

// TestCTSMomentsConcurrentSnapshots runs CTS scans at eight buffers from
// eight goroutines against one fresh moments view of a walker model, so
// some scans read prefix snapshots while others extend the tables. Under
// -race it checks the snapshot scan; the results must equal a serial run
// on a second fresh view.
func TestCTSMomentsConcurrentSnapshots(t *testing.T) {
	z, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	bufs := []float64{0, 10, 30, 100, 300, 1000, 3000, 10000}
	op := func(b float64) Operating { return Operating{C: 538, B: b, N: 30} }
	serial := make([]CTSResult, len(bufs))
	mo := traffic.NewMoments(z)
	for i, b := range bufs {
		if serial[i], err = CTSMoments(mo, op(b), 0); err != nil {
			t.Fatal(err)
		}
	}
	shared := traffic.NewMoments(z)
	got := make([]CTSResult, len(bufs))
	errs := make([]error, len(bufs))
	var wg sync.WaitGroup
	for i, b := range bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = CTSMoments(shared, op(b), 0)
		}()
	}
	wg.Wait()
	for i, b := range bufs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != serial[i] {
			t.Errorf("b=%v: concurrent CTS %+v != serial %+v", b, got[i], serial[i])
		}
	}
	if n := shared.CachedLags(); n < serial[len(bufs)-1].M {
		t.Errorf("shared view cached %d lags, below the largest m* %d", n, serial[len(bufs)-1].M)
	}
}
