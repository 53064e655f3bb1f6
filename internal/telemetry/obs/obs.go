// Package obs is the command-line glue between the flight recorder
// (internal/telemetry/flight), the SLO engine (internal/telemetry/slo)
// and the continuous profiler (internal/telemetry/prof): one flag set,
// one Start call, one Finish call, shared by every CLI so `-flight`,
// `-flight-interval`, `-slo`, `-profile` and `-profile-interval` mean
// the same thing in repro and atmsim.
//
// The packages stay decoupled — flight knows nothing of SLO rules or
// profile stores, slo knows nothing of recording cadence — and meet only
// here, through the recorder's hooks: each snapshot is fed to the engine
// as it is taken (OnFrame), so breaches increment slo_* counters online
// (visible on /metrics mid-run) rather than in a post-hoc replay, and
// the runtime/metrics bridge is polled just before each scrape
// (BeforeSnapshot), so every frame carries fresh go_* runtime-health
// metrics for both the log and the SLO rules.
//
// Typical wiring:
//
//	obsFlags := obs.AddFlags()          // before flag.Parse
//	flag.Parse()
//	sess, err := obsFlags.Start(telemetry.Default, "mytool")
//	...
//	telemetry.Serve(addr, reg, sess.Routes()...)   // mounts /vars/history
//	...
//	if !sess.Finish() { os.Exit(3) }    // stop, log verdict, gate exit
//
// Every method on *Session is nil-safe, so callers need no "is
// observability on" branches: a nil session routes nothing and finishes
// clean.
package obs

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/flight"
	"repro/internal/telemetry/prof"
	"repro/internal/telemetry/slo"
)

// Flags holds the shared observability flag values. Zero value = off.
type Flags struct {
	// Path is the -flight flag: the JSONL flight-log destination.
	Path string
	// Interval is the -flight-interval flag: the snapshot cadence.
	Interval time.Duration
	// Rules is the -slo flag: a semicolon-separated slo.ParseList input.
	Rules string
	// ProfileDir is the -profile flag: the continuous-profiling store
	// directory.
	ProfileDir string
	// ProfileInterval is the -profile-interval flag: the capture cadence.
	ProfileInterval time.Duration
}

// AddFlags registers -flight, -flight-interval, -slo, -profile and
// -profile-interval on the default flag set and returns the value
// holder. Call before flag.Parse.
func AddFlags() *Flags {
	f := &Flags{}
	flag.StringVar(&f.Path, "flight", "", "record a delta-encoded JSONL flight log of periodic metric snapshots to this file (replay with obsreport); empty = off")
	flag.DurationVar(&f.Interval, "flight-interval", flight.DefaultInterval, "flight recorder snapshot cadence (min 10ms)")
	flag.StringVar(&f.Rules, "slo", "", `semicolon-separated SLO rules evaluated against each snapshot, e.g. 'p99(mux_chunk_drain_seconds) <= 0.01; value(mux_cells_lost_total) within [0, 1e6]'; any breach fails the run`)
	flag.StringVar(&f.ProfileDir, "profile", "", "capture continuous CPU/heap/goroutine profiles into this store directory (inspect with profdiff/obsreport); empty = off")
	flag.DurationVar(&f.ProfileInterval, "profile-interval", prof.DefaultCollectInterval, "continuous-profiling capture cadence (min 100ms); each capture opens a CPU window of half the cadence")
	return f
}

// Session is a live recorder (always) plus an SLO engine (with -slo) and
// a profile collector (with -profile). A nil *Session is valid and
// inert.
type Session struct {
	Rec  *flight.Recorder
	Eng  *slo.Engine     // nil without -slo
	Prof *prof.Collector // nil without -profile

	tool string
	path string
}

// Start launches the recorder — and the online SLO evaluation when rules
// were given, and the profile collector when a store dir was given —
// against reg. Returns (nil, nil) when all flags are off: observability
// not requested. SLO rules or a profile dir without a -flight path are
// valid (the recorder then keeps only its in-memory ring). Any session
// also attaches the runtime/metrics bridge, so every frame — and every
// SLO evaluation — sees fresh go_* runtime-health metrics.
func (f *Flags) Start(reg *telemetry.Registry, tool string) (*Session, error) {
	if f == nil || (f.Path == "" && f.Rules == "" && f.ProfileDir == "") {
		return nil, nil
	}
	s := &Session{tool: tool, path: f.Path}
	if f.Rules != "" {
		rules, err := slo.ParseList(f.Rules)
		if err != nil {
			return nil, fmt.Errorf("-slo: %w", err)
		}
		s.Eng = slo.NewEngine(reg, rules)
	}
	opts := flight.Options{
		Interval: f.Interval,
		Path:     f.Path,
		Tool:     tool,
	}
	if s.Eng != nil {
		eng := s.Eng
		opts.OnFrame = func(cur flight.Frame, prev *flight.Frame) {
			eng.Observe(cur.Metrics, cur.ElapsedSeconds)
		}
	}
	// The bridge polls on the recorder goroutine just before each scrape;
	// NewRuntimeBridge takes the baseline poll here so even frame 0
	// carries live gauges.
	bridge := prof.NewRuntimeBridge(reg)
	opts.BeforeSnapshot = bridge.Poll
	if f.ProfileDir != "" {
		col, err := prof.StartCollector(prof.CollectorOptions{
			Dir:      f.ProfileDir,
			Interval: f.ProfileInterval,
			Tool:     tool,
			Registry: reg,
		})
		if err != nil {
			return nil, fmt.Errorf("-profile: %w", err)
		}
		s.Prof = col
	}
	rec, err := flight.Start(reg, opts)
	if err != nil {
		if s.Prof != nil {
			s.Prof.Stop()
		}
		return nil, err
	}
	s.Rec = rec
	telemetry.Log.Infof("flight recorder on (interval %v%s)", opts.Interval, describeSinks(f))
	return s, nil
}

// describeSinks renders the active sinks for the startup log line.
func describeSinks(f *Flags) string {
	out := ""
	if f.Path != "" {
		out += ", log " + f.Path
	}
	if f.Rules != "" {
		out += ", slo online"
	}
	if f.ProfileDir != "" {
		out += ", profiles " + f.ProfileDir
	}
	return out
}

// Routes returns the extra telemetry endpoint routes this session serves
// (the /vars/history ring). Splice into telemetry.Serve/Handler.
func (s *Session) Routes() []telemetry.Route {
	if s == nil {
		return nil
	}
	return []telemetry.Route{{Pattern: "/vars/history", Handler: s.Rec.HistoryHandler()}}
}

// Finish stops the recorder (recording the final frame) and the profile
// collector (capturing the final snapshot set), logs the SLO verdict,
// and reports whether the run is observability-clean: true when the log
// and profile store were written intact and no SLO rule failed. Callers
// gate their exit status on it.
func (s *Session) Finish() bool {
	if s == nil {
		return true
	}
	ok := true
	if err := s.Rec.Stop(); err != nil {
		telemetry.Log.Errorf("flight log %s: %v", s.path, err)
		ok = false
	} else if s.path != "" {
		telemetry.Log.Infof("flight log: %d frames in ring, log %s", s.Rec.Len(), s.path)
	}
	if s.Prof != nil {
		if err := s.Prof.Stop(); err != nil {
			telemetry.Log.Errorf("profile store %s: %v", s.Prof.Dir(), err)
			ok = false
		} else {
			telemetry.Log.Infof("profile store: %s", s.Prof.Dir())
		}
	}
	if s.Eng != nil {
		v := s.Eng.Verdict()
		if v.Failed {
			telemetry.Log.Errorf("SLO verdict: FAIL\n%s", v.Summary())
			ok = false
		} else {
			telemetry.Log.Infof("SLO verdict: PASS\n%s", v.Summary())
		}
	}
	return ok
}
