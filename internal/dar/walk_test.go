package dar

import (
	"math"
	"testing"
)

// TestWalkACFBitIdentical compares the lag-order walk with ACF(k) bit for
// bit: DAR(1..3) processes, and a DAR(1) at ρ = 0.99 walked through its
// subnormal tail (r(k) leaves the normal range near k = 70.5k) onto the
// fixed point where ρ·r rounds back to r.
func TestWalkACFBitIdentical(t *testing.T) {
	for _, c := range []struct {
		rho float64
		a   []float64
		n   int
	}{
		{0.9, []float64{1}, 1 << 16},
		{0.8, []float64{0.7, 0.3}, 1 << 16},
		{0.95, []float64{0.5, 0.2, 0.3}, 1 << 16},
		{0.99, []float64{1}, 100000},
	} {
		p, err := New(c.rho, c.a, gauss())
		if err != nil {
			t.Fatal(err)
		}
		next := p.WalkACF()
		var got float64
		for k := 1; k <= c.n; k++ {
			got = next()
			if want := p.ACF(k); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("DAR(%d) ρ=%v: walk r(%d) = %v, ACF(%d) = %v", p.Order(), c.rho, k, got, k, want)
			}
		}
		// Every case ends on its fixed point: a subnormal the recursion
		// maps to itself.
		if got == 0 || math.Abs(got) >= 0x1p-1022 {
			t.Errorf("DAR(%d) ρ=%v: r(%d) = %v, want a subnormal fixed point", p.Order(), c.rho, c.n, got)
		}
		if again := next(); math.Float64bits(again) != math.Float64bits(got) || p.ACF(c.n+1) != got {
			t.Errorf("DAR(%d) ρ=%v: tail moved from %v to %v past the fixed point", p.Order(), c.rho, got, again)
		}
	}
}
