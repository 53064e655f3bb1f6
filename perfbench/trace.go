package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/traffic"
)

// Layer names used to attribute span self time. They are the repository's
// package names, plus "bench" for the structural spans (workload, series,
// replication) whose self time is overhead no layer accounts for.
const (
	layerBench  = "bench"
	layerRunner = "runner"
	layerMux    = "mux"
	layerModels = "models"
	layerDAR    = "dar"
	layerCore   = "core"
)

// span is one timed interval of a traced run. Start and End are offsets
// from the recorder's origin; Parent is the index of the span that caused
// this one (-1 for the workload root and the isolated draw timings).
type span struct {
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Lane   int           `json:"lane"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Frames int64         `json:"frames,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps the spans of one traced run in memory. It is safe for
// concurrent use by the runner's lanes.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its index.
func (r *recorder) begin(parent int, name, layer string, lane int) int {
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Parent: parent, Name: name, Layer: layer, Lane: lane, Start: now, End: -1})
	return len(r.spans) - 1
}

// end closes span id, attributing frames source frames to it.
func (r *recorder) end(id int, frames int64) {
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	r.spans[id].Frames = frames
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans writes the spans, one JSON object per line, to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (the union of their intervals,
// clipped to the parent, so concurrent children are not double counted).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered time.Duration
		curStart, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			ks, ke := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if ke <= ks {
				continue
			}
			if ks > curEnd {
				covered += curEnd - curStart
				curStart, curEnd = ks, ke
			} else if ke > curEnd {
				curEnd = ke
			}
		}
		covered += curEnd - curStart
		self[i] = s.dur() - covered
	}
	return self
}

// drawLog remembers which generators a traced run pulled frame by frame
// (closed-loop sources), so replayDraws can time their
// draws in isolation afterwards instead of once per frame.
type drawLog struct {
	mu    sync.Mutex
	draws []*scalarDraws
}

// scalarDraws is one generator's seed and the number of frames drawn.
type scalarDraws struct {
	model  traffic.Model
	seed   int64
	frames int64
}

func (d *drawLog) track(m traffic.Model, seed int64) *scalarDraws {
	s := &scalarDraws{model: m, seed: seed}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.draws = append(d.draws, s)
	return s
}

// drawSink keeps replayed draws observable so the loop is not removed.
var drawSink float64

// modelLayer names the layer that generates m's frames: "dar" for the
// DAR(p) Markov models (plain or wrapped), "models" for the composites.
func modelLayer(m traffic.Model) string {
	name := m.Name()
	if strings.HasPrefix(name, "DAR(") || strings.HasPrefix(name, "AIMD[DAR(") {
		return layerDAR
	}
	return layerModels
}

// tracedModel wraps a model so that building a generator and every Fill of
// it become spans under parent. Name, moments and seeds are the wrapped model's, and
// every generator interface is forwarded, so the simulation takes the same
// chunked or stepped path and draws the same sample path as the bare
// model. Closed-loop generators, which the engine pulls one frame at a
// time, are only counted; their draws are timed afterwards by replayDraws.
type tracedModel struct {
	traffic.Model
	rec    *recorder
	parent int
	lane   int
	layer  string
	draws  *drawLog
}

// NewGenerator implements traffic.Model.
func (m tracedModel) NewGenerator(seed int64) traffic.Generator {
	id := m.rec.begin(m.parent, "init "+m.Name(), m.layer, m.lane)
	g := m.Model.NewGenerator(seed)
	m.rec.end(id, 0)
	if g == nil {
		return nil
	}
	if fg, ok := g.(traffic.FeedbackGenerator); ok {
		return &countedFeedbackGen{fg: fg, n: m.draws.track(m.Model, seed)}
	}
	if bg, ok := g.(traffic.BlockGenerator); ok {
		return &tracedBlockGen{Generator: g, bg: bg, m: m}
	}
	// A scalar-only open-loop generator is left untraced; no workload
	// has one, and the traced source-frame check would flag it.
	return g
}

// tracedBlockGen times each Fill call as a span.
type tracedBlockGen struct {
	traffic.Generator
	bg traffic.BlockGenerator
	m  tracedModel
}

// Fill implements traffic.BlockGenerator.
func (g *tracedBlockGen) Fill(dst []float64) {
	id := g.m.rec.begin(g.m.parent, "fill "+g.m.Name(), g.m.layer, g.m.lane)
	g.bg.Fill(dst)
	g.m.rec.end(id, int64(len(dst)))
}

// countedFeedbackGen counts the draws of a closed-loop generator and
// forwards its feedback.
type countedFeedbackGen struct {
	fg traffic.FeedbackGenerator
	n  *scalarDraws
}

// NextFrame implements traffic.Generator.
func (g *countedFeedbackGen) NextFrame() float64 {
	g.n.frames++
	return g.fg.NextFrame()
}

// Observe implements traffic.FeedbackGenerator.
func (g *countedFeedbackGen) Observe(fb traffic.Feedback) { g.fg.Observe(fb) }
