// Command profdiff inspects and compares continuous-profiling stores
// (the -profile DIR output of repro and atmsim) and gates
// CI on them. It answers three questions: where did this run spend its
// CPU and allocations (report), how did that change between two runs
// (diff), and does the run still satisfy the committed attribution
// baseline (check) — the floor that catches a new code path forgetting
// its prof.Do labels long before anyone stares at a flame graph.
//
// Usage:
//
//	profdiff [-top 15] STORE                     # report one store
//	profdiff [-threshold 0.20] [-fail] OLD NEW   # diff two stores
//	profdiff -check BASELINE.json STORE          # gate vs committed baseline
//
// Diffs compare each function's *share* of the run's total, not raw
// nanoseconds: shares are stable across machines of different speeds,
// which is what lets a laptop profile diff against a CI runner's.
// Thresholds are direction-aware the same way benchdiff's are — CPU
// time and allocation columns regress upward — and functions below
// -minshare of either run are ignored as noise. The check mode decodes
// every live profile (a parse error is always a hard failure) and
// enforces the baseline's minimum label-attribution fraction.
//
// Exit status: 0 = clean; 1 = usage, I/O or profile parse error;
// 2 = gate failure (a regression with -fail, or a -check floor breach).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/telemetry"
	"repro/internal/telemetry/prof"
)

var logx = telemetry.Log

func main() {
	var (
		top       = flag.Int("top", 15, "rows in top-N tables")
		threshold = flag.Float64("threshold", 0.20, "fractional share worsening flagged as regression (0.20 = 20%)")
		minShare  = flag.Float64("minshare", 0.01, "ignore functions below this share of the total in both runs")
		failFlag  = flag.Bool("fail", false, "diff mode: exit 2 when regressions are found (default: report only)")
		check     = flag.String("check", "", "baseline JSON (e.g. results/golden/profile_attribution.json); gate STORE against it")
		verbose   = flag.Bool("v", false, "show all comparisons, not only interesting ones")
		quiet     = flag.Bool("quiet", false, "log errors only (overrides -v)")
	)
	flag.Parse()
	logx.SetPrefix("profdiff")
	logx.SetLevel(telemetry.LevelFromFlags(*verbose, *quiet))

	var code int
	switch {
	case *check != "":
		if flag.NArg() != 1 {
			usage()
		}
		code = runCheck(os.Stdout, *check, flag.Arg(0))
	case flag.NArg() == 1:
		code = runReport(os.Stdout, flag.Arg(0), *top)
	case flag.NArg() == 2:
		code = runDiff(os.Stdout, flag.Arg(0), flag.Arg(1), *threshold, *minShare, *failFlag, *verbose)
	default:
		usage()
	}
	os.Exit(code)
}

func usage() {
	logx.Errorf("usage: profdiff [flags] STORE | profdiff [flags] OLD NEW | profdiff -check BASELINE.json STORE")
	os.Exit(1)
}

// openProfiles reads a store and decodes every live profile of one kind.
func openProfiles(dir, kind string) (*prof.Store, []*prof.Profile, error) {
	st, err := prof.ReadStore(dir)
	if err != nil {
		return nil, nil, err
	}
	ps, err := st.Profiles(kind)
	if err != nil {
		return nil, nil, err
	}
	return st, ps, nil
}

// runReport prints one store's header, top-N CPU and allocation tables,
// and the per-key label attribution summary.
func runReport(w io.Writer, dir string, top int) int {
	st, cpus, err := openProfiles(dir, prof.KindCPU)
	if err != nil {
		logx.Errorf("%v", err)
		return 1
	}
	h := st.Header
	fmt.Fprintf(w, "store %s: tool=%s start=%s %s rev=%s\n", dir, h.Tool, h.Start, h.GoVersion, h.GitRevision)
	fmt.Fprintf(w, "sets: %d live, %d evicted; kinds: %v\n", len(st.Live()), len(st.Sets)-len(st.Live()), st.Kinds())

	rows, total := prof.TopFunctions(cpus, "cpu", top)
	fmt.Fprintf(w, "\ncpu: %d windows, %.3f s sampled\n", len(cpus), float64(total)/1e9)
	printFuncs(w, rows, total, "s", 1e9)

	frac, labeled, tot := prof.Attribution(cpus, prof.Keys, "cpu")
	fmt.Fprintf(w, "\nlabel attribution: %.1f%% of cpu samples carry an experiment label (%.3f of %.3f s)\n",
		100*frac, float64(labeled)/1e9, float64(tot)/1e9)
	for _, key := range prof.Keys {
		byVal, keyLabeled, _ := prof.ByLabel(cpus, key, "cpu")
		if len(byVal) == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-12s %5.1f%% labelled:", key, pct(keyLabeled, tot))
		for i, r := range byVal {
			if i == 5 {
				fmt.Fprintf(w, " …(%d more)", len(byVal)-i)
				break
			}
			fmt.Fprintf(w, " %s=%.1f%%", r.Value, pct(r.Total, tot))
		}
		fmt.Fprintln(w)
	}

	heaps, err := st.Profiles(prof.KindHeap)
	if err != nil {
		logx.Errorf("%v", err)
		return 1
	}
	if arows, atotal := prof.TopFunctions(heaps, "alloc_space", top); atotal > 0 {
		fmt.Fprintf(w, "\nalloc_space: %.1f MiB cumulative\n", float64(atotal)/(1<<20))
		printFuncs(w, arows, atotal, "MiB", 1<<20)
	}
	return 0
}

func printFuncs(w io.Writer, rows []prof.FuncTotal, total int64, unit string, scale float64) {
	fmt.Fprintf(w, "  %10s %6s %10s  %s\n", "flat "+unit, "flat%", "cum "+unit, "function")
	for _, r := range rows {
		fmt.Fprintf(w, "  %10.3f %5.1f%% %10.3f  %s\n",
			float64(r.Flat)/scale, pct(r.Flat, total), float64(r.Cum)/scale, r.Name)
	}
}

func pct(part, total int64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}

// shareDelta is one function's share-of-total comparison between two
// stores.
type shareDelta struct {
	Name     string
	Old, New float64 // shares in [0,1]
	// Regression is true when the share worsened by more than the
	// threshold in the column's worse direction (upward, for cpu and
	// allocation columns).
	Regression bool
}

// shares merges one value column across profiles into per-function flat
// shares of the grand total.
func shares(ps []*prof.Profile, valueType string) map[string]float64 {
	rows, total := prof.TopFunctions(ps, valueType, 0)
	out := make(map[string]float64, len(rows))
	if total == 0 {
		return out
	}
	for _, r := range rows {
		if r.Flat != 0 {
			out[r.Name] = float64(r.Flat) / float64(total)
		}
	}
	return out
}

// diffShares compares per-function shares. Functions below minShare in
// both runs are ignored; a function absent from one run has share 0
// there. CPU and allocation columns are lower-is-better, so a share
// increase beyond threshold (relative, against the old share) is a
// regression; a function newly above minShare with no old share at all
// is a new hotspot and also flags.
func diffShares(old, new map[string]float64, threshold, minShare float64) []shareDelta {
	names := map[string]bool{}
	for n := range old {
		names[n] = true
	}
	for n := range new {
		names[n] = true
	}
	var out []shareDelta
	for _, n := range sortedNames(names) {
		d := shareDelta{Name: n, Old: old[n], New: new[n]}
		if d.Old < minShare && d.New < minShare {
			continue
		}
		switch {
		case d.Old == 0:
			d.Regression = d.New >= minShare // new hotspot
		default:
			d.Regression = d.New/d.Old-1 > threshold
		}
		out = append(out, d)
	}
	// Worst first: biggest share growth leads the table.
	sort.SliceStable(out, func(i, j int) bool { return out[i].New-out[i].Old > out[j].New-out[j].Old })
	return out
}

func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// runDiff compares two stores column by column and reports share
// regressions. Timing noise cancels out by construction — only the
// distribution of samples across functions matters.
func runDiff(w io.Writer, oldDir, newDir string, threshold, minShare float64, fail, verbose bool) int {
	nReg := 0
	for _, col := range []struct{ kind, valueType string }{
		{prof.KindCPU, "cpu"},
		{prof.KindHeap, "alloc_space"},
	} {
		_, oldPs, err := openProfiles(oldDir, col.kind)
		if err != nil {
			logx.Errorf("%v", err)
			return 1
		}
		_, newPs, err := openProfiles(newDir, col.kind)
		if err != nil {
			logx.Errorf("%v", err)
			return 1
		}
		oldSh, newSh := shares(oldPs, col.valueType), shares(newPs, col.valueType)
		if len(oldSh) == 0 && len(newSh) == 0 {
			continue
		}
		deltas := diffShares(oldSh, newSh, threshold, minShare)
		fmt.Fprintf(w, "%s share of total (threshold %.0f%%, min share %.1f%%):\n",
			col.valueType, 100*threshold, 100*minShare)
		fmt.Fprintf(w, "  %6s %6s %7s  %s\n", "old%", "new%", "delta", "function")
		shown := 0
		for _, d := range deltas {
			if d.Regression {
				nReg++
			}
			if !verbose && !d.Regression && abs(d.New-d.Old) < minShare {
				continue
			}
			mark := ""
			if d.Regression {
				mark = "  REGRESSION"
			}
			fmt.Fprintf(w, "  %5.1f%% %5.1f%% %+6.1fpp  %s%s\n",
				100*d.Old, 100*d.New, 100*(d.New-d.Old), d.Name, mark)
			shown++
		}
		if shown == 0 {
			fmt.Fprintf(w, "  (no function moved more than %.1fpp)\n", 100*minShare)
		}
	}
	fmt.Fprintf(w, "%d share regressions\n", nReg)
	if fail && nReg > 0 {
		return 2
	}
	return 0
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Baseline is the committed attribution contract a profile store must
// satisfy (results/golden/profile_attribution.json in CI). Zero-valued
// fields take defaults, so the file states only what it constrains.
type Baseline struct {
	SchemaVersion int `json:"schema_version"`
	// ValueType is the sample column the floor applies to (default cpu).
	ValueType string `json:"value_type,omitempty"`
	// Keys are the label keys that count as "attributed" (default: the
	// fixed experiment key set prof.Keys).
	Keys []string `json:"keys,omitempty"`
	// MinLabelAttribution is the floor on the fraction of samples
	// carrying at least one of Keys.
	MinLabelAttribution float64 `json:"min_label_attribution"`
	// MinLiveSets guards against a store that technically parses but
	// captured nothing (default 1).
	MinLiveSets int `json:"min_live_sets,omitempty"`
}

// runCheck gates a store against the committed baseline: every live
// profile of every kind must decode (parse errors are exit 1, the
// blocking class), and the label-attribution fraction must not drop
// below the committed floor (exit 2).
func runCheck(w io.Writer, baselinePath, dir string) int {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		logx.Errorf("%v", err)
		return 1
	}
	var b Baseline
	if err := json.Unmarshal(raw, &b); err != nil {
		logx.Errorf("baseline %s: %v", baselinePath, err)
		return 1
	}
	if b.ValueType == "" {
		b.ValueType = "cpu"
	}
	if len(b.Keys) == 0 {
		b.Keys = prof.Keys
	}
	if b.MinLiveSets == 0 {
		b.MinLiveSets = 1
	}
	st, err := prof.ReadStore(dir)
	if err != nil {
		logx.Errorf("%v", err)
		return 1
	}
	var cpus []*prof.Profile
	for _, kind := range st.Kinds() {
		ps, err := st.Profiles(kind)
		if err != nil {
			logx.Errorf("%v", err)
			return 1
		}
		fmt.Fprintf(w, "%s: %d profiles decoded\n", kind, len(ps))
		if kind == prof.KindCPU {
			cpus = ps
		}
	}
	if live := len(st.Live()); live < b.MinLiveSets {
		fmt.Fprintf(w, "FAIL: %d live sets, baseline requires >= %d\n", live, b.MinLiveSets)
		return 2
	}
	frac, labeled, total := prof.Attribution(cpus, b.Keys, b.ValueType)
	fmt.Fprintf(w, "attribution(%v): %.1f%% of %s samples (%d of %d), floor %.1f%%\n",
		b.Keys, 100*frac, b.ValueType, labeled, total, 100*b.MinLabelAttribution)
	if frac < b.MinLabelAttribution {
		fmt.Fprintf(w, "FAIL: attribution below the committed floor — a code path is likely missing its prof.Do labels\n")
		return 2
	}
	fmt.Fprintf(w, "OK\n")
	return 0
}
