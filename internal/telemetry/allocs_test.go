//go:build !race

// Allocation tests run without the race detector only: sync.Pool
// deliberately drops items under -race, so allocation counts change there.

package telemetry

import "testing"

// TestMetricAllocs pins the recording calls the simulation hot loops make
// once per chunk: none of them allocates.
func TestMetricAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h")
	tm := r.Timer("t")
	v := 0.0
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Histogram.Observe", func() { v += 17.5; h.Observe(v) }},
		{"Timer.Start()()", func() { tm.Start()() }},
	} {
		if a := testing.AllocsPerRun(1000, tc.f); a != 0 {
			t.Errorf("%s: %v allocations per call, want 0", tc.name, a)
		}
	}
}
