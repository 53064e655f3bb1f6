// Command perfbench is the repository's benchmark. It times the paper's
// figure functions end to end, each pass in a fresh process, and runs a
// separate traced pass that splits the time across the repository's
// layers (models, dar, mux, runner, core, traffic).
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload fig8-vz --seed 1996 --seconds 20 --trace 0
//	perfbench compare OLD.json NEW.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Each run also writes a
// record, stamped with the host and revision, under --out/records.
// README.md lists the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// minSetups is the fewest set-up samples a run takes: when the timed
// passes are fewer, set-up-only passes (fresh processes that only build
// the models) make up the difference.
const minSetups = 9

// runLimit bounds one run, whatever --seconds says.
const runLimit = 170 * time.Second

// coverageMin is the share of the traced pass's span self time that the
// layer spans must account for; the rest is the benchmark's own work.
const coverageMin = 0.95

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passReport is what one fresh-process pass reports to the parent.
type passReport struct {
	// Index numbers the passes of a run; passes with one index share a
	// seed. Timed marks the passes the end-to-end metrics come from.
	Index          int                `json:"index"`
	Timed          bool               `json:"timed"`
	Seed           int64              `json:"seed"`
	Mode           string             `json:"mode"`
	Workers        int                `json:"workers"`
	WallS          float64            `json:"wall_s"`
	CPUS           float64            `json:"cpu_s"`
	SetupS         float64            `json:"setup_s"`
	MaxRSSMB       float64            `json:"max_rss_mb"`
	RetainedHeapMB float64            `json:"retained_heap_mb"`
	GCCPUS         float64            `json:"gc_cpu_s"`
	Unconverged    int                `json:"unconverged"`
	Digest         string             `json:"digest"`
	Checks         []check            `json:"checks"`
	Layers         map[string]float64 `json:"layers,omitempty"`
}

// record is the file each run leaves under --out/records.
type record struct {
	Host     hostStamp    `json:"host"`
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Seconds  int          `json:"seconds"`
	Trace    int          `json:"trace"`
	Result   result       `json:"result"`
	Checks   []check      `json:"checks"`
	Passes   []passReport `json:"passes"`
}

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "pass":
		err = passMain(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "compare":
		err = compareMain(os.Args[2:])
	default:
		err = runMain(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "fig8-vz", "workload name")
	seed := fs.Int64("seed", 1996, "master seed")
	seconds := fs.Int("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "1 for the traced run with per-layer metrics")
	root := fs.String("root", ".", "repository root (holds results/)")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for records and spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	for _, d := range []string{"records", "spans"} {
		if err := os.MkdirAll(filepath.Join(*out, d), 0o755); err != nil {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	host := stampHost(*root)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d on %s, %d CPUs, GOMAXPROCS %d, %s, revision %s (dirty %s)\n",
		w.name, *seed, host.CPUModel, host.NumCPU, host.GOMAXPROCS, host.GoVersion, host.Revision, host.Dirty)

	workers := runtime.GOMAXPROCS(0)
	spawn := func(mode string, workers, i int) (passReport, error) {
		spans := filepath.Join(*out, "spans", fmt.Sprintf("%s-seed%d-%d.jsonl", w.name, *seed, i))
		p, err := spawnPass(ctx, w.name, passSeed(*seed, i), workers, mode, *root, spans)
		p.Index = i
		return p, err
	}
	var passes []passReport
	start := time.Now()
	if *trace == 0 && w.sim {
		// Not timed: the outputs at one worker must match those of pass 1.
		p, err := spawn("untraced", 1, 1)
		if err != nil {
			return err
		}
		passes = append(passes, p)
	}
	loopStart := time.Now()
	for i := 1; ; i++ {
		p, err := spawn("untraced", workers, i)
		if err != nil {
			return err
		}
		p.Timed = true
		passes = append(passes, p)
		if *trace == 1 {
			if p, err = spawn("traced", workers, i); err != nil {
				return err
			}
			passes = append(passes, p)
		}
		perIteration := time.Since(loopStart) / time.Duration(i)
		if time.Since(start)+perIteration > time.Duration(*seconds)*time.Second {
			break
		}
	}
	for n := timedCount(passes); n < minSetups; n++ {
		p, err := spawn("setup", workers, 0)
		if err != nil {
			return err
		}
		passes = append(passes, p)
	}
	prior, err := checkRepeats(filepath.Join(*out, "records"), w.name, *seed, host.SourceDigest, passes)
	if err != nil {
		return err
	}
	res, checks := summarize(w, *trace == 1, passes, prior...)
	fmt.Fprintf(os.Stderr, "perfbench: %d passes in %.1f s\n", len(passes), time.Since(start).Seconds())
	for _, c := range checks {
		if !c.OK {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: %s: %s\n", c.Name, c.Detail)
		}
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	rec := record{Host: host, Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Result: res, Checks: checks, Passes: passes}
	recPath := filepath.Join(*out, "records", fmt.Sprintf("%s-seed%d-trace%d-%d.json", w.name, *seed, *trace, time.Now().UnixNano()))
	if err := writeJSON(recPath, rec); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// spawnPass runs one pass in a fresh process and collects its report.
func spawnPass(ctx context.Context, workload string, seed int64, workers int, mode, root, spans string) (passReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return passReport{}, err
	}
	cmd := exec.CommandContext(ctx, exe, "pass", "--workload", workload, "--seed", fmt.Sprint(seed),
		"--workers", fmt.Sprint(workers), "--mode", mode, "--root", root, "--spans", spans)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return passReport{}, fmt.Errorf("%s pass: %w\n%s", mode, err, tail(stderr.String(), 2000))
	}
	var p passReport
	if err := json.Unmarshal(stdout.Bytes(), &p); err != nil {
		return passReport{}, fmt.Errorf("%s pass report: %w", mode, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.MaxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return p, nil
}

func tail(s string, n int) string {
	if len(s) > n {
		return s[len(s)-n:]
	}
	return s
}

// passSeed is the seed of pass i of a run with master seed seed: a
// splitmix64 hash, so each pass draws fresh inputs and the run's medians
// average over many sample paths rather than over one.
func passSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64(z ^ z>>31)
}

// summarize folds the passes of one run into the reported metrics and the
// full list of checks.
func summarize(w *workload, traced bool, passes []passReport, prior ...check) (result, []check) {
	checks := append([]check(nil), prior...)
	var timed []passReport
	var setups, overheads []float64
	byIndex := map[int][]passReport{}
	for _, p := range passes {
		checks = append(checks, p.Checks...)
		byIndex[p.Index] = append(byIndex[p.Index], p)
		if p.Timed {
			timed = append(timed, p)
		}
		if p.Timed || p.Mode == "setup" {
			setups = append(setups, p.SetupS)
		}
	}
	// Passes that share an index share a seed: the worker-count pass and
	// the traced pass must reproduce the timed pass's outputs exactly.
	var tracedPasses []passReport
	for i := 1; len(byIndex[i]) > 0; i++ {
		group := byIndex[i]
		if len(group) < 2 {
			continue
		}
		var digests, modes []string
		for _, p := range group {
			digests = append(digests, p.Digest)
			modes = append(modes, fmt.Sprintf("%s/%d workers", p.Mode, p.Workers))
			if p.Mode == "traced" {
				tracedPasses = append(tracedPasses, p)
				overheads = append(overheads, p.WallS-group[0].WallS)
			}
		}
		checks = append(checks, checkDigests(fmt.Sprintf("pass %d outputs identical (%s)", i, strings.Join(modes, ", ")), digests))
	}
	failed := failedCount(checks)
	res := result{Correct: failed == 0, Attempted: len(checks), Failed: failed, Metrics: map[string]metric{}}
	set := func(m metricDef, v float64) { res.Metrics[m.name] = metric{v, m.unit} }
	timedMedian := func(f func(passReport) float64) float64 { return median(pick(timed, f)) }
	wall := timedMedian(func(p passReport) float64 { return p.WallS })
	if !traced {
		for _, m := range endToEnd {
			switch m.name {
			case "wall_s":
				set(m, wall)
			case "cpu_s":
				set(m, timedMedian(func(p passReport) float64 { return p.CPUS }))
			case "setup_s":
				set(m, median(setups))
			case "max_rss_mb":
				set(m, timedMedian(func(p passReport) float64 { return p.MaxRSSMB }))
			}
		}
		return res, checks
	}
	for _, m := range perLayer {
		switch m.name {
		case "fail_share":
			set(m, float64(failed)/float64(len(checks)))
		case "source_frames_per_s":
			set(m, float64(w.sourceFrames)/wall)
		case "core.retained_heap_mb":
			set(m, timedMedian(func(p passReport) float64 { return p.RetainedHeapMB }))
		case "runtime.gc_cpu_s":
			set(m, timedMedian(func(p passReport) float64 { return p.GCCPUS }))
		case "experiments.unconverged_points":
			set(m, timedMedian(func(p passReport) float64 { return float64(p.Unconverged) }))
		case "bench.trace_overhead_s":
			set(m, median(overheads))
		default:
			set(m, median(pick(tracedPasses, func(p passReport) float64 { return p.Layers[m.name] })))
		}
	}
	return res, checks
}

func timedCount(passes []passReport) int {
	n := 0
	for _, p := range passes {
		if p.Timed {
			n++
		}
	}
	return n
}

// checkRepeats compares this run's outputs with the records of earlier
// runs of the same workload, seed and sources: every pass index both runs
// made must have the same output digest.
func checkRepeats(dir, workload string, seed int64, sources string, passes []passReport) ([]check, error) {
	paths, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace*.json", workload, seed)))
	if err != nil {
		return nil, err
	}
	mine := map[int]string{}
	for _, p := range passes {
		mine[p.Index] = p.Digest
	}
	var cs []check
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(b, &rec); err != nil || rec.Host.SourceDigest != sources {
			continue
		}
		name := "outputs repeat " + filepath.Base(path)
		c := okCheck(name)
		for _, p := range rec.Passes {
			if d, ok := mine[p.Index]; ok && d != p.Digest {
				c = failCheck(name, "pass %d digest %s, was %s", p.Index, d, p.Digest)
				break
			}
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func pick(ps []passReport, f func(passReport) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// passMain runs one pass of a workload in this process and prints its
// report as JSON.
func passMain(args []string) error {
	fs := flag.NewFlagSet("pass", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1996, "master seed")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "runner workers")
	mode := fs.String("mode", "untraced", "untraced, traced, or setup (build the models only)")
	root := fs.String("root", ".", "repository root")
	spans := fs.String("spans", "", "file for the traced pass's spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	var p passReport
	if *mode == "setup" {
		_, err = buildModels(w, &p)
	} else {
		p, err = runPass(w, *seed, *workers, *mode == "traced", *root, *spans)
	}
	if err != nil {
		return err
	}
	p.Mode, p.Seed = *mode, *seed
	return json.NewEncoder(os.Stdout).Encode(p)
}

// runPass builds the workload's models, then makes the timed calls once.
func runPass(w *workload, seed int64, workers int, traced bool, root, spansPath string) (passReport, error) {
	p := passReport{Workers: workers}
	models, err := buildModels(w, &p)
	if err != nil {
		return p, err
	}
	var tr *tracer
	if traced {
		tr = newTracer(workers)
	}
	gc0, cpu0 := gcCPU(), cpuTime()
	start := time.Now()
	var out *passOutput
	if traced {
		out, err = w.traced(models, seed, tr)
		tr.rec.end(tr.root, 0)
	} else {
		out, err = w.run(models, seed, workers)
	}
	p.WallS = time.Since(start).Seconds()
	p.CPUS = cpuTime() - cpu0
	p.GCCPUS = gcCPU() - gc0
	if err != nil {
		return p, fmt.Errorf("%s: %w", w.name, err)
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	p.RetainedHeapMB = float64(mem.HeapAlloc) / (1 << 20)
	p.Unconverged = unconverged(out.results)
	p.Digest = digest(out.results)
	p.Checks = checkOutputs(w, root, out)
	if traced {
		replayDraws(tr)
		spans := tr.rec.snapshot()
		p.Layers = layerMetrics(tr, spans, workers)
		p.Checks = append(p.Checks, tracedChecks(w, tr, p.Layers)...)
		if spansPath != "" {
			if err := writeSpans(spansPath, spans); err != nil {
				return p, err
			}
		}
	}
	return p, nil
}
