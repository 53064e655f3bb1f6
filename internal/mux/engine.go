package mux

import (
	"context"

	"repro/internal/telemetry"
	"repro/internal/telemetry/prof"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// Feedback-path telemetry. metFeedbackSteps counts per-frame feedback
// deliveries (one per served frame of a closed-loop run, regardless of how
// many sources listen); it is flushed once per run from the engine's frame
// counter, never bumped per frame.
var metFeedbackSteps = telemetry.Default.Counter("mux_feedback_steps_total")

// Profiling labels mirroring the mux_path_runs_total{path=...} counters:
// CPU samples of a run with only open-loop sources carry path=chunked,
// those of a run with any closed-loop source path=stepped.
var (
	profChunked = prof.Labels{Path: "chunked"}
	profStepped = prof.Labels{Path: "stepped"}
)

// lindleyStep is the one shared Lindley kernel of this package: it
// advances the fluid finite-buffer recursion one frame,
//
//	net  = w + a − c
//	loss = (net − b)^+
//	w'   = min(net^+, b)
//
// returning the cells lost during the frame and the workload after it.
// With b = +Inf it degenerates to the infinite-buffer workload recursion
// w' = net^+ with zero loss, so the finite-buffer (CLR) and
// infinite-buffer (BOP) runs share this single implementation of the
// clip/overflow arithmetic.
func lindleyStep(w, a, c, b float64) (loss, next float64) {
	net := w + a - c
	if net <= 0 {
		return 0, 0
	}
	if net > b {
		return net - b, b
	}
	return 0, net
}

// tally folds measured frames into the finite-buffer statistics of a
// Result.
type tally struct {
	arrived, lost, sumW, maxW float64
	lossFrames                int
}

// engine is the multiplexer's one simulation loop. It holds the source
// streams and the Lindley state and advances them a chunk (≤ chunkFrames
// frames) at a time:
//
//   - the open-loop sources are pooled into one blockAggregator, whose
//     chunk fills amortise the per-frame dispatch;
//   - each closed-loop source (traffic.FeedbackGenerator) adds its
//     NextFrame per frame and observes the post-frame queue state.
//
// Aggregation order: the aggregate arrival of a frame is the open-loop
// sources' sum (in source order) plus the closed-loop sources' frames (in
// source order). For a pure open-loop run this is exactly the historical
// source-order summation, so sample paths are bit-identical to it.
type engine struct {
	totalC float64
	totalB float64 // +Inf for infinite-buffer runs
	w      float64
	frame  int // frames with feedback delivered, warm-up included

	// open sums the open-loop sources; with none it still supplies the
	// zeroed chunk buffer that advance fills.
	open   *blockAggregator
	closed []traffic.FeedbackGenerator
}

// newEngine partitions gens into the open-loop pool and the closed-loop
// tap list. totalB may be math.Inf(1) for infinite-buffer dynamics. Every
// newEngine must be paired with a deferred release.
func newEngine(gens []traffic.Generator, totalC, totalB float64) *engine {
	e := &engine{totalC: totalC, totalB: totalB}
	var open []traffic.Generator
	for _, g := range gens {
		if fg, ok := g.(traffic.FeedbackGenerator); ok {
			e.closed = append(e.closed, fg)
		} else {
			open = append(open, g)
		}
	}
	e.open = newBlockAggregator(open)
	return e
}

// advance simulates the frames whose open-loop arrivals buf holds, in
// place: on return buf[i] is the workload after frame i. Each frame adds
// the closed-loop sources' arrivals, applies the Lindley kernel, delivers
// the feedback (skipped when every source is open-loop) and is folded
// into t.
func (e *engine) advance(buf []float64, t *tally) {
	for i, a := range buf {
		for _, g := range e.closed {
			a += g.NextFrame()
		}
		loss, next := lindleyStep(e.w, a, e.totalC, e.totalB)
		if len(e.closed) > 0 {
			e.frame++
			// served = min(w + a, C), derived without re-branching:
			// everything that arrived or was queued either remains
			// queued, was lost, or left.
			fb := traffic.Feedback{
				Frame:       e.frame,
				W:           next,
				Buffer:      e.totalB,
				Capacity:    e.totalC,
				Loss:        loss,
				Utilization: (e.w + a - loss - next) / e.totalC,
			}
			for _, g := range e.closed {
				g.Observe(fb)
			}
		}
		t.arrived += a
		if loss > 0 {
			t.lost += loss
			t.lossFrames++
		}
		e.w = next
		t.sumW += next
		if next > t.maxW {
			t.maxW = next
		}
		buf[i] = next
	}
}

// run discards warmup frames, then measures frames more and summarises
// them as a Result. scan, when non-nil, sees the post-frame workloads of
// every measured chunk. A non-nil ctx parents per-chunk "mux fill" and
// "mux drain" spans (trace.FromContext) and carries the caller's pprof
// labels, merged with this run's path label; a nil ctx means neither.
func (e *engine) run(ctx context.Context, warmup, frames int, scan func(ws []float64)) Result {
	parent := trace.FromContext(ctx)
	e.open.span, e.open.ctx = parent, ctx
	res := Result{Frames: frames}
	loop := func() {
		var discard tally
		for rem := warmup; rem > 0; rem -= chunkFrames {
			e.advance(e.open.next(min(rem, chunkFrames)), &discard)
		}
		res.InitialW = e.w
		var t tally
		for rem := frames; rem > 0; {
			n := min(rem, chunkFrames)
			ws := e.open.next(n)
			sp := chunkSpan(parent, "mux drain", n)
			stopDrain := metDrainTime.Start()
			e.advance(ws, &t)
			stopDrain()
			sp.End()
			metOccupancy.Observe(e.w)
			if scan != nil {
				scan(ws)
			}
			rem -= n
		}
		res.ArrivedCells, res.LostCells, res.LossFrames = t.arrived, t.lost, t.lossFrames
		res.MaxWorkload = t.maxW
		res.MeanWorkload = t.sumW / float64(frames)
	}
	path, label := metPathChunked, profChunked
	if len(e.closed) > 0 {
		path, label = metPathStepped, profStepped
	}
	profiled(ctx, label, loop)
	res.FinalW = e.w
	if res.ArrivedCells > 0 {
		res.CLR = res.LostCells / res.ArrivedCells
	}
	metRuns.Inc()
	path.Inc()
	metCellsArrived.Add(res.ArrivedCells)
	metCellsLost.Add(res.LostCells)
	return res
}

// profiled runs f under ctx's pprof labels merged with l; a nil ctx runs
// f unlabelled.
func profiled(ctx context.Context, l prof.Labels, f func()) {
	if ctx == nil {
		f()
		return
	}
	prof.Do(ctx, l, func(context.Context) { f() })
}

// release returns pooled buffers and flushes the feedback counter. The
// engine must not be used afterwards.
func (e *engine) release() {
	e.open.release()
	if e.frame > 0 {
		metFeedbackSteps.Add(int64(e.frame))
		e.frame = 0
	}
}
