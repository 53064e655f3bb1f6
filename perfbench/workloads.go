package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/mux"
	"repro/internal/runner"
	"repro/internal/traffic"
)

// Workload sizes. Each untraced pass takes about a second on a 2-CPU host
// (the analytic pass is fixed by the committed figures at about 20 s), so
// one run of --seconds holds many fresh-process samples.
const (
	fig8Reps      = 1 // fewer replications than workers: one core idles
	fig8Frames    = 60
	fig10Reps     = 4 // at least as many replications as workers
	fig10Frames   = 400000
	extloopReps   = 4
	extloopFrames = 30000
)

// passOutput is what one pass of a workload produced, in the form the
// output checks read.
type passOutput struct {
	results []*experiments.Result
	// sweeps holds the per-replication multiplexer results of every
	// simulated series, when the pass saw them (the traced passes and the
	// closed-loop workload, which drive mux directly).
	sweeps []sweepOut
}

// sweepOut is one simulated series: byBuffer[i][rep] at ascending buffers.
type sweepOut struct {
	label    string
	coupled  bool // one arrival path drives every buffer size
	byBuffer [][]mux.Result
}

// workload is one benchmark workload: how to build its models, the
// untraced timed call, and the traced re-run of the same calls with spans
// around each layer boundary.
type workload struct {
	name string
	// sim marks the simulation workloads: they have source frames, use
	// the runner, and must give the same outputs at any worker count.
	sim bool
	// coupled marks simulations whose buffers share one arrival path, so
	// every CLR curve must not rise with the buffer.
	coupled bool
	setup   func() ([]traffic.Model, error)
	run     func(ms []traffic.Model, seed int64, workers int) (*passOutput, error)
	traced  func(ms []traffic.Model, seed int64, t *tracer) (*passOutput, error)
	// sourceFrames is the exact number of source frames one pass draws.
	sourceFrames int64
}

// workloads are the benchmark's workloads, in BENCHMARK.json's order;
// README.md records why each was chosen.
var workloads = []*workload{
	{
		// FBNDP-bound, with fewer replications than workers.
		name:    "fig8-vz",
		sim:     true,
		coupled: true,
		setup:   vzModels,
		run: func(_ []traffic.Model, seed int64, workers int) (*passOutput, error) {
			res, err := experiments.Fig8(experiments.SimConfig{Reps: fig8Reps, Frames: fig8Frames, Seed: seed, Workers: workers})
			return &passOutput{results: res}, err
		},
		traced:       tracedFig8,
		sourceFrames: int64(len(models.VValues)+len(models.ZValues)) * fig8Reps * experiments.BopN * (fig8Frames + fig8Frames/20),
	},
	{
		// Cheap DAR(1) draws, no FBNDP: the bypass for generator changes.
		name:    "fig10-dar",
		sim:     true,
		coupled: true,
		setup: func() ([]traffic.Model, error) {
			d, err := darZ975()
			return []traffic.Model{d}, err
		},
		run: func(_ []traffic.Model, seed int64, workers int) (*passOutput, error) {
			res, err := experiments.Fig10(experiments.SimConfig{Reps: fig10Reps, Frames: fig10Frames, Seed: seed, Workers: workers})
			return &passOutput{results: []*experiments.Result{res}}, err
		},
		traced:       tracedFig10,
		sourceFrames: fig10Reps * experiments.BopN * (fig10Frames + fig10Frames/20),
	},
	{
		// Closed-loop sources: the stepped mux engine does most of the work.
		name: "extloop-dar",
		sim:  true,
		setup: func() ([]traffic.Model, error) {
			d, err := darZ975()
			if err != nil {
				return nil, err
			}
			ad, err := models.NewAIMD(d, models.AIMDConfig{})
			if err != nil {
				return nil, err
			}
			return []traffic.Model{ad}, nil
		},
		run:          runExtloop,
		traced:       tracedExtloop,
		sourceFrames: int64(len(experiments.ClosedLoopBufferGridMsec)) * extloopReps * experiments.BopN * (extloopFrames + extloopFrames/20),
	},
	{
		// No simulation: the ACF walk, the scans and the moments cache.
		name:  "analytic-fig4-fig5",
		setup: vzModels,
		run: func(_ []traffic.Model, _ int64, _ int) (*passOutput, error) {
			f4, err := experiments.Fig4()
			if err != nil {
				return nil, err
			}
			f5, err := experiments.Fig5()
			if err != nil {
				return nil, err
			}
			return &passOutput{results: append(f4, f5...)}, nil
		},
		traced: tracedAnalytic,
	},
}

// darZ975 builds DAR(1)[Z^0.975], the Markov model of Fig 10 and extloop.
func darZ975() (traffic.Model, error) {
	z, err := models.NewZ(0.975)
	if err != nil {
		return nil, err
	}
	return models.FitS(z, 1)
}

// vzModels builds the V^v and Z^a families in the order the figures
// draw them.
func vzModels() ([]traffic.Model, error) {
	var ms []traffic.Model
	for _, v := range models.VValues {
		m, err := models.NewV(v)
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
	}
	for _, a := range models.ZValues {
		m, err := models.NewZ(a)
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
	}
	return ms, nil
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runExtloop is the AIMD[DAR(1)[Z^0.975]] series of experiments.ExtClosedLoop:
// one replication batch per buffer of the closed-loop grid.
func runExtloop(ms []traffic.Model, seed int64, workers int) (*passOutput, error) {
	m := ms[0]
	eng := runner.New(workers)
	s := experiments.Series{Label: m.Name()}
	sw := sweepOut{label: m.Name()}
	clrs := make([]float64, extloopReps)
	for _, msec := range experiments.ClosedLoopBufferGridMsec {
		results, err := mux.RunReplicationsEngine(context.Background(), eng, extloopConfig(m, seed, msec), extloopReps)
		if err != nil {
			return nil, err
		}
		ci := mux.CLREstimate(results, 0.95)
		s.X = append(s.X, msec)
		s.Y = append(s.Y, ci.Point)
		for rep, r := range results {
			clrs[rep] = r.CLR
		}
		s.Verdicts = append(s.Verdicts, diag.Assess(clrs, experiments.DefaultConvMaxRelCI))
		sw.byBuffer = append(sw.byBuffer, results)
	}
	return &passOutput{results: []*experiments.Result{extloopResult(s)}, sweeps: []sweepOut{sw}}, nil
}

func extloopConfig(m traffic.Model, seed int64, msec float64) mux.Config {
	return mux.Config{
		Model:  m,
		N:      experiments.BopN,
		C:      experiments.ClosedLoopC,
		B:      experiments.MsecToPerSourceCells(msec, experiments.ClosedLoopC),
		Frames: extloopFrames,
		Warmup: extloopFrames / 20,
		Seed:   seed,
	}
}

func extloopResult(s experiments.Series) *experiments.Result {
	return &experiments.Result{ID: "extloop-dar", XLabel: "buffer msec", YLabel: "CLR", Series: []experiments.Series{s}}
}

// tracer carries the recorder and the lane bookkeeping of one traced pass.
type tracer struct {
	rec     *recorder
	root    int
	workers int
	draws   drawLog

	laneMu sync.Mutex
	busy   []bool

	// Analytic walk/scan split: a first core call on a Moments view pays
	// for extending the ACF memo and the scan; a repeat call on the same
	// view pays for the scan alone.
	first, repeat time.Duration
	acfLags       int64
	repeatsDiffer int
}

func newTracer(workers int) *tracer {
	t := &tracer{rec: newRecorder(), workers: workers, busy: make([]bool, workers)}
	t.root = t.rec.begin(-1, "workload", layerBench, 0)
	return t
}

// takeLane returns the lowest free lane (1-based) for a replication.
func (t *tracer) takeLane() int {
	t.laneMu.Lock()
	defer t.laneMu.Unlock()
	for i, b := range t.busy {
		if !b {
			t.busy[i] = true
			return i + 1
		}
	}
	t.busy = append(t.busy, true)
	return len(t.busy)
}

func (t *tracer) putLane(lane int) {
	t.laneMu.Lock()
	defer t.laneMu.Unlock()
	t.busy[lane-1] = false
}

// replicate runs reps replications of one multiplexer call on the
// runner, the way mux's replication helpers do: the same runner job ID,
// so the same replication seeds. Each replication is a span on its lane,
// with the mux call as its child; the model is wrapped so its Fill calls
// nest below the mux call.
func replicate(t *tracer, parent int, jobID string, reps int, base mux.Config, muxName string,
	call func(mux.Config) ([]mux.Result, error)) ([][]mux.Result, error) {
	rid := t.rec.begin(parent, "runner.Run "+jobID, layerRunner, 0)
	defer t.rec.end(rid, 0)
	spec := runner.Spec{ID: jobID, Reps: reps, MasterSeed: base.Seed}
	return runner.Run(context.Background(), runner.New(t.workers), spec,
		func(_ context.Context, r runner.Rep) ([]mux.Result, error) {
			lane := t.takeLane()
			defer t.putLane(lane)
			repID := t.rec.begin(rid, fmt.Sprintf("replication %d", r.Index), layerRunner, lane)
			muxID := t.rec.begin(repID, muxName, layerMux, lane)
			c := base
			c.Seed = r.Seed
			c.Model = tracedModel{Model: base.Model, rec: t.rec, parent: muxID, lane: lane,
				layer: modelLayer(base.Model), draws: &t.draws}
			res, err := call(c)
			// A mux span's frame count is its Lindley steps: one per
			// aggregate frame and buffer size.
			t.rec.end(muxID, int64(len(res))*int64(c.Frames+c.Warmup))
			t.rec.end(repID, 0)
			return res, err
		})
}

// tracedSweep is the traced counterpart of the experiments' coupled CLR
// sweep: replications of mux.RunSweep over the buffer grid.
func tracedSweep(t *tracer, m traffic.Model, c float64, grid []float64, seed int64, reps, frames int) (experiments.Series, sweepOut, error) {
	sid := t.rec.begin(t.root, "series "+m.Name(), layerBench, 0)
	defer t.rec.end(sid, 0)
	buffers := make([]float64, len(grid))
	for i, msec := range grid {
		buffers[i] = experiments.MsecToPerSourceCells(msec, c)
	}
	base := mux.Config{Model: m, N: experiments.BopN, C: c, Frames: frames, Warmup: frames / 20, Seed: seed}
	byRep, err := replicate(t, sid, "mux/sweep/"+m.Name(), reps, base, "mux.RunSweep",
		func(c mux.Config) ([]mux.Result, error) { return mux.RunSweep(c, buffers) })
	if err != nil {
		return experiments.Series{}, sweepOut{}, err
	}
	s := experiments.Series{Label: m.Name()}
	sw := sweepOut{label: m.Name(), coupled: true}
	for i := range grid {
		col := make([]mux.Result, reps)
		for rep := range byRep {
			col[rep] = byRep[rep][i]
		}
		s.X = append(s.X, grid[i])
		s.Y = append(s.Y, mux.CLREstimate(col, 0.95).Point)
		sw.byBuffer = append(sw.byBuffer, col)
	}
	return s, sw, nil
}

func tracedFig8(ms []traffic.Model, seed int64, t *tracer) (*passOutput, error) {
	a := &experiments.Result{ID: "fig8a", XLabel: "buffer msec", YLabel: "CLR"}
	b := &experiments.Result{ID: "fig8b", XLabel: "buffer msec", YLabel: "CLR"}
	out := &passOutput{results: []*experiments.Result{a, b}}
	for i, m := range ms {
		s, sw, err := tracedSweep(t, m, experiments.BopC, experiments.SimBufferGridMsec, seed, fig8Reps, fig8Frames)
		if err != nil {
			return nil, err
		}
		if i < len(models.VValues) {
			a.Series = append(a.Series, s)
		} else {
			b.Series = append(b.Series, s)
		}
		out.sweeps = append(out.sweeps, sw)
	}
	return out, nil
}

// coreCall times a first call of a core estimate on a moments view and a
// repeat call on the same view, as two spans, and books their difference
// as ACF-walk time and the repeat as scan time.
func (t *tracer) coreCall(parent int, name string, f func() (float64, error)) (float64, error) {
	start := time.Now()
	id := t.rec.begin(parent, name, layerCore, 0)
	v, err := f()
	t.rec.end(id, 0)
	t.first += time.Since(start)
	if err != nil {
		return 0, err
	}
	start = time.Now()
	rid := t.rec.begin(parent, name+" (repeat)", layerCore, 0)
	again, err := f()
	t.rec.end(rid, 0)
	t.repeat += time.Since(start)
	if err != nil {
		return 0, err
	}
	if again != v {
		t.repeatsDiffer++
	}
	return v, nil
}

// analyticSeries evaluates one model across a buffer grid with est, the
// traced counterpart of the experiments' CTS and B-R series.
func (t *tracer) analyticSeries(m traffic.Model, c float64, n int, grid []float64,
	est func(*traffic.Moments, core.Operating) (float64, error)) (experiments.Series, error) {
	sid := t.rec.begin(t.root, "series "+m.Name(), layerBench, 0)
	defer t.rec.end(sid, 0)
	mid := t.rec.begin(sid, "core.Moments", layerCore, 0)
	mo := core.Moments(m)
	t.rec.end(mid, 0)
	s := experiments.Series{Label: m.Name()}
	for _, msec := range grid {
		op := core.Operating{C: c, B: experiments.MsecToPerSourceCells(msec, c), N: n}
		y, err := t.coreCall(sid, "core estimate", func() (float64, error) { return est(mo, op) })
		if err != nil {
			return experiments.Series{}, fmt.Errorf("%s at %v msec: %w", m.Name(), msec, err)
		}
		s.X = append(s.X, msec)
		s.Y = append(s.Y, y)
	}
	t.acfLags += int64(mo.CachedLags())
	return s, nil
}

func ctsEstimate(mo *traffic.Moments, op core.Operating) (float64, error) {
	res, err := core.CTSMoments(mo, op, 0)
	return float64(res.M), err
}

func brEstimate(mo *traffic.Moments, op core.Operating) (float64, error) {
	return core.BahadurRaoMoments(mo, op, 0)
}

func lnEstimate(mo *traffic.Moments, op core.Operating) (float64, error) {
	return core.LargeNMoments(mo, op, 0)
}

func tracedAnalytic(_ []traffic.Model, _ int64, t *tracer) (*passOutput, error) {
	out := &passOutput{}
	figs := []struct {
		id   string
		c    float64
		n    int
		est  func(*traffic.Moments, core.Operating) (float64, error)
		ylab string
	}{
		{"fig4", experiments.Fig4C, experiments.Fig4N, ctsEstimate, "m*_b (frames)"},
		{"fig5", experiments.BopC, experiments.BopN, brEstimate, "P(W>B)"},
	}
	for _, f := range figs {
		// Each figure builds its own models, as experiments.Fig4 and Fig5
		// do, so neither reuses the other's moments cache entries.
		ms, err := vzModels()
		if err != nil {
			return nil, err
		}
		a := &experiments.Result{ID: f.id + "a", XLabel: "buffer msec", YLabel: f.ylab}
		b := &experiments.Result{ID: f.id + "b", XLabel: "buffer msec", YLabel: f.ylab}
		for i, m := range ms {
			s, err := t.analyticSeries(m, f.c, f.n, experiments.BufferGridMsec, f.est)
			if err != nil {
				return nil, err
			}
			if i < len(models.VValues) {
				a.Series = append(a.Series, s)
			} else {
				b.Series = append(b.Series, s)
			}
		}
		out.results = append(out.results, a, b)
	}
	return out, nil
}

func tracedFig10(ms []traffic.Model, seed int64, t *tracer) (*passOutput, error) {
	d := ms[0]
	br := experiments.Series{Label: "Bahadur-Rao"}
	ln := experiments.Series{Label: "Large-N"}
	aid := t.rec.begin(t.root, "series asymptotics", layerBench, 0)
	mid := t.rec.begin(aid, "core.Moments", layerCore, 0)
	mo := core.Moments(d)
	t.rec.end(mid, 0)
	for _, msec := range experiments.SimBufferGridMsec {
		op := core.Operating{C: experiments.BopC, B: experiments.MsecToPerSourceCells(msec, experiments.BopC), N: experiments.BopN}
		pb, err := t.coreCall(aid, "core.BahadurRaoMoments", func() (float64, error) { return brEstimate(mo, op) })
		if err != nil {
			return nil, err
		}
		pl, err := t.coreCall(aid, "core.LargeNMoments", func() (float64, error) { return lnEstimate(mo, op) })
		if err != nil {
			return nil, err
		}
		br.X, br.Y = append(br.X, msec), append(br.Y, pb)
		ln.X, ln.Y = append(ln.X, msec), append(ln.Y, pl)
	}
	t.acfLags += int64(mo.CachedLags())
	t.rec.end(aid, 0)
	sim, sw, err := tracedSweep(t, d, experiments.BopC, experiments.SimBufferGridMsec, seed, fig10Reps, fig10Frames)
	if err != nil {
		return nil, err
	}
	sim.Label = "simulated CLR"
	res := &experiments.Result{ID: "fig10", XLabel: "buffer msec", YLabel: "probability",
		Series: []experiments.Series{br, ln, sim}}
	return &passOutput{results: []*experiments.Result{res}, sweeps: []sweepOut{sw}}, nil
}

func tracedExtloop(ms []traffic.Model, seed int64, t *tracer) (*passOutput, error) {
	m := ms[0]
	sid := t.rec.begin(t.root, "series "+m.Name(), layerBench, 0)
	defer t.rec.end(sid, 0)
	s := experiments.Series{Label: m.Name()}
	sw := sweepOut{label: m.Name()}
	for _, msec := range experiments.ClosedLoopBufferGridMsec {
		byRep, err := replicate(t, sid, "mux/clr/"+m.Name(), extloopReps, extloopConfig(m, seed, msec), "mux.Run",
			func(c mux.Config) ([]mux.Result, error) {
				r, err := mux.Run(c)
				return []mux.Result{r}, err
			})
		if err != nil {
			return nil, err
		}
		results := make([]mux.Result, len(byRep))
		for rep, r := range byRep {
			results[rep] = r[0]
		}
		s.X = append(s.X, msec)
		s.Y = append(s.Y, mux.CLREstimate(results, 0.95).Point)
		sw.byBuffer = append(sw.byBuffer, results)
	}
	return &passOutput{results: []*experiments.Result{extloopResult(s)}, sweeps: []sweepOut{sw}}, nil
}
