package main

import (
	"fmt"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/traffic"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run (--trace 1). A metric that
// does not apply to a workload (FBNDP series on fig10-dar, the ACF walk on
// a simulation) reads 0.
var perLayer = []metricDef{
	{"fail_share", "share"},
	{"source_frames_per_s", "1/s"},
	{"models.init_s", "s"},
	{"models.fill_s", "s"},
	{"models.source_frames", "count"},
	{"models.v0_67.us_per_source_frame", "us"},
	{"models.v1.us_per_source_frame", "us"},
	{"models.v1_5.us_per_source_frame", "us"},
	{"models.z0_7.us_per_source_frame", "us"},
	{"models.z0_9.us_per_source_frame", "us"},
	{"models.z0_975.us_per_source_frame", "us"},
	{"models.z0_99.us_per_source_frame", "us"},
	{"models.v1_5.wall_share", "share"},
	{"runner.busy_s", "s"},
	{"runner.idle_s", "s"},
	{"runner.reps", "count"},
	{"runner.max_rep_s", "s"},
	{"runner.core_use", "share"},
	{"dar.fill_s", "s"},
	{"dar.ns_per_source_frame", "ns"},
	{"mux.self_s", "s"},
	{"mux.ns_per_lindley_step", "ns"},
	{"mux.stepped_ns_per_frame", "ns"},
	{"traffic.acf_walk_s", "s"},
	{"traffic.acf_lags", "count"},
	{"core.scan_s", "s"},
	{"core.retained_heap_mb", "MB"},
	{"runtime.gc_cpu_s", "s"},
	{"experiments.unconverged_points", "count"},
	{"bench.trace_overhead_s", "s"},
	{"bench.coverage", "share"},
}

// buildModels builds the workload's models once and records the time.
// The pass is a fresh process, so this is the cold build a user pays,
// lazy initialisation included.
func buildModels(w *workload, p *passReport) ([]traffic.Model, error) {
	start := time.Now()
	ms, err := w.setup()
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	p.SetupS = time.Since(start).Seconds()
	return ms, nil
}

// cpuTime returns the process's user plus system CPU seconds.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// gcCPU returns the runtime's estimate of CPU seconds spent on GC.
func gcCPU() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// unconverged counts the simulated points whose estimate had not
// converged.
func unconverged(results []*experiments.Result) int {
	n := 0
	for _, r := range results {
		for _, s := range r.Series {
			for _, v := range s.Verdicts {
				if !v.Converged {
					n++
				}
			}
		}
	}
	return n
}

// replayDraws times, in isolation, the draws the traced pass pulled one
// frame at a time, and records them as spans outside the workload tree.
func replayDraws(t *tracer) {
	for _, d := range t.draws.draws {
		g := d.model.NewGenerator(d.seed)
		id := t.rec.begin(-1, "draws "+d.model.Name(), modelLayer(d.model), 0)
		var sink float64
		for i := int64(0); i < d.frames; i++ {
			sink += g.NextFrame()
		}
		t.rec.end(id, d.frames)
		drawSink += sink
	}
}

// seriesKey turns a model name such as "V^1.5" into "v1_5".
func seriesKey(name string) string {
	return strings.NewReplacer("^", "", ".", "_").Replace(strings.ToLower(name))
}

// layerMetrics derives the per-layer metrics of one traced pass from its
// spans.
func layerMetrics(t *tracer, spans []span, workers int) map[string]float64 {
	self := selfTimes(spans)
	wall := spans[t.root].dur()
	var initGen, fill, darFill, draws, busy, maxRep, chunked, stepped, layerSelf, allSelf time.Duration
	var frames, darFrames, chunkedSteps, steppedFrames int64
	var reps int
	seriesFill := map[string]time.Duration{}
	seriesFrames := map[string]int64{}
	seriesWall := map[string]time.Duration{}
	for i, s := range spans {
		d := s.dur()
		if s.Parent >= 0 || i == t.root {
			allSelf += self[i]
			if s.Layer != layerBench {
				layerSelf += self[i]
			}
		}
		switch {
		case strings.HasPrefix(s.Name, "init "):
			initGen += d
		case strings.HasPrefix(s.Name, "fill "), strings.HasPrefix(s.Name, "draws "):
			fill += d
			frames += s.Frames
			if strings.HasPrefix(s.Name, "draws ") {
				draws += d
			}
			key := seriesKey(s.Name[strings.IndexByte(s.Name, ' ')+1:])
			seriesFill[key] += d
			seriesFrames[key] += s.Frames
			if s.Layer == layerDAR {
				darFill += d
				darFrames += s.Frames
			}
		case strings.HasPrefix(s.Name, "series "):
			seriesWall[seriesKey(strings.TrimPrefix(s.Name, "series "))] += d
		case strings.HasPrefix(s.Name, "replication "):
			busy += d
			reps++
			maxRep = max(maxRep, d)
		case s.Name == "mux.RunSweep":
			chunked += self[i]
			chunkedSteps += s.Frames
		case s.Name == "mux.Run":
			stepped += self[i]
			steppedFrames += s.Frames
		}
	}
	// The stepped engine pulls frames one at a time, so its span also
	// holds the draws; take out their isolated timing.
	stepped -= draws
	per := func(d time.Duration, n int64, unit time.Duration) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(unit) / float64(n)
	}
	// The runner's capacity is every worker for the whole traced wall; a
	// workload that never calls the runner has none.
	capacity := wall * time.Duration(workers)
	if reps == 0 {
		capacity = 0
	}
	m := map[string]float64{
		"models.init_s":            initGen.Seconds(),
		"models.fill_s":            fill.Seconds(),
		"models.source_frames":     float64(frames),
		"models.v1_5.wall_share":   ratio(seriesWall["v1_5"], wall),
		"runner.busy_s":            busy.Seconds(),
		"runner.idle_s":            max(0, capacity-busy).Seconds(),
		"runner.reps":              float64(reps),
		"runner.max_rep_s":         maxRep.Seconds(),
		"runner.core_use":          ratio(busy, capacity),
		"dar.fill_s":               darFill.Seconds(),
		"dar.ns_per_source_frame":  per(darFill, darFrames, time.Nanosecond),
		"mux.self_s":               (chunked + stepped).Seconds(),
		"mux.ns_per_lindley_step":  per(chunked, chunkedSteps, time.Nanosecond),
		"mux.stepped_ns_per_frame": per(stepped, steppedFrames, time.Nanosecond),
		"traffic.acf_walk_s":       (t.first - t.repeat).Seconds(),
		"traffic.acf_lags":         float64(t.acfLags),
		"core.scan_s":              t.repeat.Seconds(),
		"bench.coverage":           ratio(layerSelf, allSelf),
	}
	for _, v := range models.VValues {
		key := seriesKey(fmt.Sprintf("V^%g", v))
		m["models."+key+".us_per_source_frame"] = per(seriesFill[key], seriesFrames[key], time.Microsecond)
	}
	for _, a := range models.ZValues {
		key := seriesKey(fmt.Sprintf("Z^%g", a))
		m["models."+key+".us_per_source_frame"] = per(seriesFill[key], seriesFrames[key], time.Microsecond)
	}
	return m
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// tracedChecks are the checks only a traced pass can make.
func tracedChecks(w *workload, t *tracer, layers map[string]float64) []check {
	var cs []check
	if cov := layers["bench.coverage"]; cov >= coverageMin {
		cs = append(cs, okCheck("traced layer self time covers the traced wall"))
	} else {
		cs = append(cs, failCheck("traced layer self time covers the traced wall", "coverage %.4f < %.2f", cov, coverageMin))
	}
	if got := int64(layers["models.source_frames"]); got == w.sourceFrames {
		cs = append(cs, okCheck("traced source frames"))
	} else {
		cs = append(cs, failCheck("traced source frames", "drew %d, want %d", got, w.sourceFrames))
	}
	if t.repeatsDiffer == 0 {
		cs = append(cs, okCheck("repeat core calls agree"))
	} else {
		cs = append(cs, failCheck("repeat core calls agree", "%d repeats differ", t.repeatsDiffer))
	}
	return cs
}
