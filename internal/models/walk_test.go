package models

import (
	"math"
	"testing"

	"repro/internal/traffic"
)

// walkedModel is a model with a lag-order ACF walk.
type walkedModel interface {
	traffic.Model
	traffic.ACFWalker
}

// checkWalk demands that the first n values of m's walk equal ACF(k) bit
// for bit.
func checkWalk(t *testing.T, name string, m walkedModel, n int) {
	t.Helper()
	next := m.WalkACF()
	for k := 1; k <= n; k++ {
		got, want := next(), m.ACF(k)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: walk r(%d) = %v (%#x), ACF(%d) = %v (%#x)",
				name, k, got, math.Float64bits(got), k, want, math.Float64bits(want))
		}
	}
}

type walkCase struct {
	name string
	m    walkedModel
}

// walkCases returns every model family the analytic figures walk: the
// V^v and Z^a composites and their FBNDP and DAR(1) components, L, and
// the DAR(1..3) fits to Z^0.975 and Z^0.7.
func walkCases(t *testing.T) []walkCase {
	t.Helper()
	var out []walkCase
	add := func(c *Composite) {
		out = append(out, walkCase{c.Name(), c}, walkCase{c.Name() + "/X", c.X}, walkCase{c.Name() + "/Y", c.Y})
	}
	for _, v := range VValues {
		c, err := NewV(v)
		if err != nil {
			t.Fatal(err)
		}
		add(c)
	}
	for _, a := range ZValues {
		c, err := NewZ(a)
		if err != nil {
			t.Fatal(err)
		}
		add(c)
		if a != 0.975 && a != 0.7 {
			continue
		}
		for _, p := range SOrders {
			d, err := FitS(c, p)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, walkCase{d.Name(), d})
		}
	}
	l, err := NewL()
	if err != nil {
		t.Fatal(err)
	}
	return append(out, walkCase{"L", l})
}

// TestWalkACFBitIdentical walks every model past 1e5 lags, far enough
// for each DAR tail to settle on its subnormal fixed point.
func TestWalkACFBitIdentical(t *testing.T) {
	for _, c := range walkCases(t) {
		checkWalk(t, c.name, c.m, 1<<17)
	}
}

// hiddenWalk exposes only traffic.Model, so a Moments view over it falls
// back to ACF(k) per lag.
type hiddenWalk struct{ traffic.Model }

// TestMomentsWalkMatchesACF compares V(m) over a walked Moments view with
// a view that cannot see the walk, for every m through 1e5.
func TestMomentsWalkMatchesACF(t *testing.T) {
	z, err := NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewV(1.5)
	if err != nil {
		t.Fatal(err)
	}
	d3, err := FitS(z, 3)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewL()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []traffic.Model{v, z, l, d3} {
		walked, direct := traffic.NewMoments(m), traffic.NewMoments(hiddenWalk{m})
		for k := 1; k <= 1e5; k++ {
			got, want := walked.VarSum(k), direct.VarSum(k)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: walked V(%d) = %v, per-lag ACF V(%d) = %v", m.Name(), k, got, k, want)
			}
		}
		if got, want := walked.CachedLags(), direct.CachedLags(); got != want {
			t.Fatalf("%s: walked view cached %d lags, direct %d", m.Name(), got, want)
		}
	}
}
