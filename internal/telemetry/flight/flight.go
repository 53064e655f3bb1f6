// Package flight is the time dimension of the observability layer: a
// flight recorder that periodically snapshots a telemetry.Registry —
// counters, gauges, histogram quantiles, and whatever convergence or
// health state the run publishes as metrics — into an in-memory ring
// buffer (served live at /vars/history) and an append-only, delta-encoded
// JSONL time-series log that survives interruption at any line boundary.
//
// Point-in-time telemetry answers "where is the run now"; the flight
// recorder answers "how did it get there": how convergence tightened, when
// the loss counters started moving, whether a latency quantile degraded
// mid-soak. The log replays through cmd/obsreport into a unified run
// report, and each snapshot can be evaluated online by the SLO engine
// (internal/telemetry/slo) through the OnFrame hook.
//
// Design constraints, in order:
//
//  1. Recording must never perturb results. The recorder only reads the
//     registry (each instrument atomically, exactly like a /metrics
//     scrape); it never touches random streams or simulation state, so
//     fixed-seed outputs are bit-identical with the recorder on or off —
//     CI proves this by diffing flight-on vs flight-off smoke manifests at
//     rtol 0.
//  2. Recording must be cheap. One snapshot is one registry scrape plus
//     one buffered JSONL line; at the default 1 s cadence the overhead on
//     a simulation hot path is far below 1% (BenchmarkFlightSnapshot and
//     the benchdiff gate keep it that way).
//  3. The snapshot goroutine must not leak. Stop reaps it (wait group +
//     done channel), and the package's tests run under leakcheck.Main.
//
// Consistency model (DESIGN.md §14): each instrument in a frame is read
// atomically, so per-metric series are exact — a counter can never
// decrease across frames. The set of instruments is NOT fenced: a frame
// is not a consistent cut across metrics, which is the usual (and here
// sufficient) contract for progress observability.
package flight

import (
	"fmt"
	"net/http"
	"time"

	"encoding/json"
	"sync"

	"repro/internal/telemetry"
)

// DefaultInterval is the snapshot cadence when Options.Interval is zero.
const DefaultInterval = time.Second

// DefaultCapacity is the ring-buffer size when Options.Capacity is zero:
// at the default cadence, a bit over eight minutes of history.
const DefaultCapacity = 512

// minInterval guards against a mistyped flag melting a run with
// millisecond scrapes.
const minInterval = 10 * time.Millisecond

// Frame is one point-in-time snapshot of the registry. Metrics are
// absolute values in the registry's canonical (name, labels) sort order.
type Frame struct {
	Seq            int64                `json:"seq"`
	ElapsedSeconds float64              `json:"elapsed_seconds"`
	Metrics        []telemetry.Snapshot `json:"metrics"`
}

// Options parameterises a Recorder.
type Options struct {
	// Interval is the snapshot cadence (default DefaultInterval, clamped
	// to at least 10 ms).
	Interval time.Duration
	// Capacity bounds the in-memory ring (default DefaultCapacity).
	Capacity int
	// Path, when non-empty, appends a delta-encoded JSONL log (see log.go)
	// flushed per line, so an interrupted run leaves a valid truncated log.
	Path string
	// Tool names the producing binary in the log header.
	Tool string
	// OnFrame, when non-nil, is called after every snapshot with the new
	// frame and the previous one (nil for the first). It runs on the
	// recorder goroutine outside the recorder lock — the SLO engine's
	// online evaluation hook. It must not block for long: the next
	// snapshot waits for it.
	OnFrame func(cur Frame, prev *Frame)
	// BeforeSnapshot, when non-nil, runs immediately before each registry
	// scrape, on the calling goroutine and outside the recorder lock. It
	// exists for pull-style metric sources that must be polled into the
	// registry so the frame about to be taken sees fresh values — the
	// runtime/metrics bridge (internal/telemetry/prof) is the canonical
	// user. Same contract as OnFrame: cheap, never touches simulation
	// state.
	BeforeSnapshot func()
}

// Recorder periodically snapshots a registry. Create with Start; stop
// with Stop, which records one final frame so even runs shorter than the
// interval leave history behind.
type Recorder struct {
	reg  *telemetry.Registry
	opts Options
	log  *logWriter
	t0   time.Time

	// Self-instrumentation, registered in the observed registry so the
	// recorder's own health shows up on /metrics and in its own frames
	// (one frame behind: counters are bumped after the scrape).
	frameCount *telemetry.Counter // flight_frames_total
	logErrors  *telemetry.Counter // flight_log_errors_total

	mu   sync.Mutex
	ring []Frame
	head int // next write slot
	n    int // occupied slots
	seq  int64
	last *Frame // most recent frame (absolute), for deltas and OnFrame
	err  error  // first log write error

	done chan struct{}
	wg   sync.WaitGroup
}

// Start builds a recorder, records the initial frame, and launches the
// snapshot goroutine. The caller owns Stop.
func Start(reg *telemetry.Registry, opts Options) (*Recorder, error) {
	if reg == nil {
		return nil, fmt.Errorf("flight: nil registry")
	}
	if opts.Interval <= 0 {
		opts.Interval = DefaultInterval
	}
	if opts.Interval < minInterval {
		opts.Interval = minInterval
	}
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultCapacity
	}
	r := &Recorder{
		reg:        reg,
		opts:       opts,
		t0:         time.Now(),
		ring:       make([]Frame, opts.Capacity),
		done:       make(chan struct{}),
		frameCount: reg.Counter("flight_frames_total"),
		logErrors:  reg.Counter("flight_log_errors_total"),
	}
	if opts.Path != "" {
		lw, err := createLog(opts.Path, LogHeader{
			Tool:            opts.Tool,
			Start:           r.t0.Format(time.RFC3339Nano),
			IntervalSeconds: opts.Interval.Seconds(),
		})
		if err != nil {
			return nil, err
		}
		r.log = lw
	}
	r.Record() // frame 0: the baseline every delta integrates from
	r.wg.Add(1)
	go r.loop()
	return r, nil
}

// loop drives the periodic snapshots until Stop.
func (r *Recorder) loop() {
	defer r.wg.Done()
	t := time.NewTicker(r.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-t.C:
			r.Record()
		}
	}
}

// Record takes one frame immediately, outside the periodic cadence:
// scrape, ring append, delta-encoded log line, OnFrame callback (outside
// the lock). The ticker calls it once per interval; callers may also
// invoke it at moments worth pinning (stage boundaries, benchmarks).
func (r *Recorder) Record() {
	if r.opts.BeforeSnapshot != nil {
		r.opts.BeforeSnapshot()
	}
	metrics := r.reg.Snapshot()

	r.mu.Lock()
	cur := Frame{
		Seq:            r.seq,
		ElapsedSeconds: time.Since(r.t0).Seconds(),
		Metrics:        metrics,
	}
	r.seq++
	prev := r.last
	r.ring[r.head] = cur
	r.head = (r.head + 1) % len(r.ring)
	if r.n < len(r.ring) {
		r.n++
	}
	r.last = &cur
	if r.log != nil {
		if err := r.log.frame(cur, prev); err != nil {
			r.logErrors.Inc()
			if r.err == nil {
				r.err = err
			}
		}
	}
	onFrame := r.opts.OnFrame
	r.mu.Unlock()

	r.frameCount.Inc()
	if onFrame != nil {
		onFrame(cur, prev)
	}
}

// Stop halts the snapshot goroutine, records a final frame (so the log
// always carries the run's closing state), closes the log, and returns
// the first write error if any.
func (r *Recorder) Stop() error {
	r.mu.Lock()
	select {
	case <-r.done:
		r.mu.Unlock()
		return r.err // already stopped
	default:
		close(r.done)
	}
	r.mu.Unlock()
	r.wg.Wait()
	r.Record()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.log != nil {
		if err := r.log.close(); err != nil && r.err == nil {
			r.err = err
		}
		r.log = nil
	}
	return r.err
}

// Frames returns the ring contents, oldest first.
func (r *Recorder) Frames() []Frame {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Frame, 0, r.n)
	start := r.head - r.n
	if start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.ring[(start+i)%len(r.ring)])
	}
	return out
}

// Len returns the number of frames currently buffered.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// HistoryHandler serves the ring as JSON — mounted at /vars/history by
// the CLIs' telemetry endpoints:
//
//	{"interval_seconds": 1, "frames": [{"seq":0, "elapsed_seconds":..., "metrics":[...]}, ...]}
//
// Frames carry absolute values (the delta encoding is a log-file
// compactness concern, not an API one).
func (r *Recorder) HistoryHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{
			"interval_seconds": r.opts.Interval.Seconds(),
			"frames":           r.Frames(),
		})
	})
}
