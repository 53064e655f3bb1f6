// Package prof is the attribution dimension of the observability layer:
// continuous profiling with experiment-coordinate labels.
//
// Telemetry (counters, histograms) and spans say how long each stage of a
// run took; the flight recorder says how that evolved over time. Neither
// says where the CPU time and allocations actually go. This package
// closes that gap with four pieces:
//
//  1. Label propagation (this file): the runner and the mux wrap
//     replication work in Do, which applies pprof goroutine labels drawn
//     from a FIXED key set — figure, sweep_point, model, path, lane — so
//     every CPU sample the Go profiler takes is attributable to an
//     experiment coordinate. The key set is closed on purpose: profiles
//     aggregate across runs and tools, and ad-hoc keys would fragment
//     attribution (the proflabels analyzer in internal/analysis enforces
//     this at lint time).
//
//  2. A background Collector (collector.go) that captures periodic CPU
//     windows plus heap/mutex/block/goroutine snapshots into a bounded,
//     schema-versioned on-disk Store (store.go) with the same
//     interrupt-safety contract as the flight log: the index is JSONL,
//     flushed per line, and a torn final line is a valid truncation
//     point, not corruption.
//
//  3. A stdlib-only pprof protobuf decoder (pprofpb.go) and aggregator
//     (agg.go) — in the spirit of internal/analysis mirroring
//     go/analysis — producing top-N tables by function and by label,
//     consumed by cmd/profdiff and cmd/obsreport.
//
//  4. A runtime/metrics bridge (runtime.go) exporting GC pause
//     quantiles, scheduler latency, heap bytes and goroutine counts into
//     the telemetry registry, so flight frames record them and SLO rules
//     can watch them (p99(go_gc_pause_seconds) < 0.01,
//     stalled(go_goroutines)).
//
// The same constraints as the flight recorder apply, in the same order:
// profiling must never perturb results (labels and profiles are pure
// observation; CI diffs profiled vs unprofiled smoke manifests at
// rtol 0), must be cheap (goroutine labels are a small map copy per
// replication, far below the per-replication simulation work; the
// benchdiff gate holds the mux hot path), and must not leak goroutines
// (Collector.Stop reaps; tests run under leakcheck.Main).
package prof

import (
	"context"
	"runtime/pprof"
)

// The fixed label key set. Every pprof goroutine label this repository
// attaches uses exactly these keys; cmd/profdiff measures what fraction
// of CPU samples carry at least one of them (the attribution floor the
// CI baseline commits to).
const (
	// KeyFigure is the experiment/figure id (fig8, extloop, ...), set by
	// the CLI driver loop.
	KeyFigure = "figure"
	// KeySweepPoint identifies the point within a figure's sweep — a
	// buffer size for per-point closed-loop runs, "coupled" for sweeps
	// whose single pass covers the whole grid.
	KeySweepPoint = "sweep_point"
	// KeyModel is the traffic model name (V, Z, S, L, aimd:..., ...).
	KeyModel = "model"
	// KeyPath tells mux runs apart by their sources: "chunked" when every
	// source is open-loop, "stepped" when any closed-loop source takes
	// per-frame feedback.
	KeyPath = "path"
	// KeyLane is the runner worker lane (1-based), matching the lane
	// labels on runner_lane_reps_done_total and trace spans.
	KeyLane = "lane"
)

// Keys lists the fixed label key set in display order. The proflabels
// analyzer (internal/analysis) rejects any literal pprof label key
// outside this set.
var Keys = []string{KeyFigure, KeySweepPoint, KeyModel, KeyPath, KeyLane}

// Labels is the typed form of the fixed key set: the only way this
// repository attaches pprof labels. Empty fields are omitted, so callers
// set just the coordinates they own and inherit the rest from the
// context (pprof labels merge parent-to-child through ctx).
type Labels struct {
	Figure     string
	SweepPoint string
	Model      string
	Path       string
	Lane       string
}

// pairs flattens the non-empty fields to pprof's k,v,... form.
func (l Labels) pairs() []string {
	p := make([]string, 0, 10)
	if l.Figure != "" {
		p = append(p, KeyFigure, l.Figure)
	}
	if l.SweepPoint != "" {
		p = append(p, KeySweepPoint, l.SweepPoint)
	}
	if l.Model != "" {
		p = append(p, KeyModel, l.Model)
	}
	if l.Path != "" {
		p = append(p, KeyPath, l.Path)
	}
	if l.Lane != "" {
		p = append(p, KeyLane, l.Lane)
	}
	return p
}

// Do runs f with l's non-empty labels merged into ctx's label set and
// applied to the current goroutine for the duration of the call, so CPU
// samples taken inside f carry them. The previous goroutine labels are
// restored when f returns. A nil ctx is treated as context.Background();
// with no labels to add, f runs directly (zero cost beyond the call).
//
// Labels propagate only through the context: pass the ctx given to f
// onward (and into prof.Do in callees) or child work loses attribution.
func Do(ctx context.Context, l Labels, f func(ctx context.Context)) {
	if ctx == nil {
		ctx = context.Background()
	}
	p := l.pairs()
	if len(p) == 0 {
		f(ctx)
		return
	}
	pprof.Do(ctx, pprof.Labels(p...), f)
}

// WithLabels returns a context carrying l's non-empty labels merged with
// any labels already on ctx. It does NOT apply them to the current
// goroutine — they take effect at the next Do on the returned context.
// Use it to stack coordinates (figure at the driver, model at the
// series, lane in the runner) before the innermost Do applies them all.
func WithLabels(ctx context.Context, l Labels) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	p := l.pairs()
	if len(p) == 0 {
		return ctx
	}
	return pprof.WithLabels(ctx, pprof.Labels(p...))
}
