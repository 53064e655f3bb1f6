package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// compareMain prints two run records side by side, metric by metric. It
// refuses records measured on different hosts, since their difference
// would mix the change with the machine.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: perfbench compare OLD.json NEW.json")
	}
	var recs [2]record
	for i, path := range fs.Args() {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &recs[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	a, b := recs[0], recs[1]
	if err := comparable(a, b); err != nil {
		return err
	}
	fmt.Printf("%s seed %d/%d: %s (dirty %s) -> %s (dirty %s)\n", a.Workload, a.Seed, b.Seed,
		a.Host.Revision, a.Host.Dirty, b.Host.Revision, b.Host.Dirty)
	names := make([]string, 0, len(a.Result.Metrics))
	for k := range a.Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		old, cur := a.Result.Metrics[k], b.Result.Metrics[k]
		ratio := "-"
		if old.Value != 0 {
			ratio = fmt.Sprintf("%.3fx", cur.Value/old.Value)
		}
		fmt.Printf("  %-36s %14.6g %14.6g %8s %s\n", k, old.Value, cur.Value, ratio, old.Unit)
	}
	return nil
}

// comparable reports why two records cannot be compared, if they cannot.
func comparable(a, b record) error {
	if err := sameHost(a.Host, b.Host); err != nil {
		return fmt.Errorf("records are from different hosts: %w", err)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("records measure different things: %s trace %d vs %s trace %d",
			a.Workload, a.Trace, b.Workload, b.Trace)
	}
	return nil
}
