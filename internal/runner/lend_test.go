package runner

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestLendWithoutEngineRunsNothing: a ctx that did not come from Run, or
// no ctx at all, lends nothing and runs nothing.
func TestLendWithoutEngineRunsNothing(t *testing.T) {
	var calls atomic.Int64
	fn := func(int) { calls.Add(1) }
	if Lend(context.Background(), 8, fn) {
		t.Error("Lend without an engine returned true")
	}
	if Lend(nil, 8, fn) {
		t.Error("Lend with a nil ctx returned true")
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("fn ran %d times without an engine", n)
	}
}

// TestLendOneWorkerNeverLends: the only lane of a 1-worker engine is the
// replication's own, so there is never an idle one to lend.
func TestLendOneWorkerNeverLends(t *testing.T) {
	var calls atomic.Int64
	_, err := Run(context.Background(), New(1), Spec{ID: "one", Reps: 3, MasterSeed: 1},
		func(ctx context.Context, r Rep) (bool, error) {
			return Lend(ctx, 8, func(int) { calls.Add(1) }), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("1-worker engine lent: fn ran %d times", n)
	}
}

// TestLendLaneAccounting hammers Lend from every replication of a job and
// checks that busy lanes never exceed the engine's workers, both when
// replications leave lanes idle and when there are more replications than
// lanes (a worker taking its next replication must wait for a lent lane),
// and that every index of a successful Lend runs exactly once.
func TestLendLaneAccounting(t *testing.T) {
	for _, tc := range []struct{ workers, reps int }{{4, 2}, {3, 7}} {
		e := New(tc.workers)
		var active, peakActive, peakLanes, lent atomic.Int64
		raise := func(peak *atomic.Int64, v int64) {
			for p := peak.Load(); v > p && !peak.CompareAndSwap(p, v); p = peak.Load() {
			}
		}
		_, err := Run(context.Background(), e, Spec{ID: "lanes", Reps: tc.reps, MasterSeed: 1},
			func(ctx context.Context, r Rep) (bool, error) {
				for range 200 {
					const n = 9
					var ran [n]atomic.Int64
					ok := Lend(ctx, n, func(i int) {
						raise(&peakActive, active.Add(1))
						raise(&peakLanes, int64(len(e.lanes)))
						runtime.Gosched()
						ran[i].Add(1)
						active.Add(-1)
					})
					want := int64(0)
					if ok {
						want = 1
						lent.Add(1)
					}
					for i := range ran {
						if got := ran[i].Load(); got != want {
							t.Errorf("rep %d: index %d ran %d times, want %d (lent %v)", r.Index, i, got, want, ok)
						}
					}
				}
				return true, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		w := int64(tc.workers)
		if p := peakActive.Load(); p > w {
			t.Errorf("workers=%d reps=%d: %d fn calls ran at once", tc.workers, tc.reps, p)
		}
		if p := peakLanes.Load(); p > w {
			t.Errorf("workers=%d reps=%d: %d lanes busy at once", tc.workers, tc.reps, p)
		}
		if tc.reps < tc.workers && lent.Load() == 0 {
			t.Errorf("workers=%d reps=%d: no Lend call found an idle lane", tc.workers, tc.reps)
		}
		if n := len(e.lanes); n != 0 {
			t.Errorf("workers=%d reps=%d: %d lanes still busy after Run", tc.workers, tc.reps, n)
		}
	}
}
