package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
)

// check is one output check. fail_share is the share of checks that fail.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func okCheck(name string) check { return check{Name: name, OK: true} }

func failCheck(name, format string, args ...any) check {
	return check{Name: name, Detail: fmt.Sprintf(format, args...)}
}

// failedCount returns how many checks failed.
func failedCount(cs []check) int {
	n := 0
	for _, c := range cs {
		if !c.OK {
			n++
		}
	}
	return n
}

// digest hashes every result's CSV rendering, which prints each value at
// full precision, so equal digests mean bit-identical outputs.
func digest(results []*experiments.Result) string {
	h := sha256.New()
	for _, r := range results {
		fmt.Fprintf(h, "%s\n%s", r.ID, r.CSV())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkGolden compares each result's CSV with the committed file
// results/<ID>.csv under root, byte for byte.
func checkGolden(root string, results []*experiments.Result) []check {
	var cs []check
	for _, r := range results {
		name := "golden " + r.ID + ".csv"
		want, err := os.ReadFile(filepath.Join(root, "results", r.ID+".csv"))
		switch {
		case err != nil:
			cs = append(cs, failCheck(name, "%v", err))
		case string(want) != r.CSV():
			cs = append(cs, failCheck(name, "differs from the committed file"))
		default:
			cs = append(cs, okCheck(name))
		}
	}
	return cs
}

// checkSeries checks every curve of a simulation figure: each value is a
// finite probability, and where the curve comes from one arrival path
// (a coupled sweep, or an asymptotic estimate) it does not increase with
// the buffer.
func checkSeries(results []*experiments.Result, coupled bool) []check {
	var cs []check
	for _, r := range results {
		for _, s := range r.Series {
			name := r.ID + " " + s.Label
			cs = append(cs, checkProbabilities(name, s.Y))
			if coupled {
				cs = append(cs, checkNonIncreasing(name, s.X, s.Y))
			}
		}
	}
	return cs
}

func checkProbabilities(name string, ys []float64) check {
	name += " in [0,1]"
	for i, y := range ys {
		if math.IsNaN(y) || y < 0 || y > 1 {
			return failCheck(name, "point %d = %v", i, y)
		}
	}
	return okCheck(name)
}

func checkNonIncreasing(name string, xs, ys []float64) check {
	name += " non-increasing in buffer"
	for i := 1; i < len(ys); i++ {
		if ys[i] > ys[i-1] {
			return failCheck(name, "rises from %v at %v msec to %v at %v msec", ys[i-1], xs[i-1], ys[i], xs[i])
		}
	}
	return okCheck(name)
}

// checkSweeps checks every replication of every simulated series: lost
// cells never exceed arrived cells, each CLR is a finite probability, and
// along a coupled sweep each replication's CLR does not increase with the
// buffer.
func checkSweeps(sweeps []sweepOut) []check {
	var cs []check
	for _, sw := range sweeps {
		name := sw.label + " replications: lost <= arrived, CLR in [0,1]"
		c := okCheck(name)
	scan:
		for i, col := range sw.byBuffer {
			for rep, r := range col {
				if !(r.LostCells <= r.ArrivedCells) || math.IsNaN(r.CLR) || r.CLR < 0 || r.CLR > 1 {
					c = failCheck(name, "buffer %d rep %d: lost %v arrived %v CLR %v", i, rep, r.LostCells, r.ArrivedCells, r.CLR)
					break scan
				}
			}
		}
		cs = append(cs, c)
		if !sw.coupled || len(sw.byBuffer) == 0 {
			continue
		}
		name = sw.label + " replications: CLR non-increasing in buffer"
		c = okCheck(name)
	mono:
		for i := 1; i < len(sw.byBuffer); i++ {
			for rep := range sw.byBuffer[i] {
				if sw.byBuffer[i][rep].CLR > sw.byBuffer[i-1][rep].CLR {
					c = failCheck(name, "rep %d rises at buffer %d", rep, i)
					break mono
				}
			}
		}
		cs = append(cs, c)
	}
	return cs
}

// checkOutputs runs every check that applies to one pass of w.
func checkOutputs(w *workload, root string, out *passOutput) []check {
	var cs []check
	if w.sim {
		cs = append(cs, checkSeries(out.results, w.coupled)...)
		cs = append(cs, checkSweeps(out.sweeps)...)
	} else {
		cs = append(cs, checkGolden(root, out.results)...)
	}
	return cs
}

// checkDigests checks that every pass of a run produced the same outputs.
func checkDigests(name string, digests []string) check {
	for _, d := range digests[1:] {
		if d != digests[0] {
			return failCheck(name, "%d passes, digests %s", len(digests), strings.Join(digests, " "))
		}
	}
	return okCheck(name)
}
