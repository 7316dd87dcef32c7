package main

// -compare: judge a new all-workloads report against an old one, metric
// by metric and workload by workload, under the bounds and directions of
// the end-to-end table.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// verdict is the outcome for one metric on one workload.
type verdict string

const (
	better     verdict = "better"
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// quartiles returns the first and third quartile of values the way
// Python's statistics.quantiles(values, n=4) does (the exclusive method),
// so a spread computed here matches one computed by the driver. It needs
// two values at least.
func quartiles(values []float64) (q1, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median:
// how far a file's own slices disagree with each other.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q3 := quartiles(values)
	med := median(values)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// judge compares one metric. A metric in simulated time must be equal to
// be the same. A timed one is the same within its bound, unless either
// file's own readings spread wider than the bound: then the two values
// prove nothing, and the verdict is unresolved unless every reading of
// the new file beats every reading of the old.
func judge(def metricDef, old, new value) verdict {
	sign := 1.0 // positive change = worse
	if def.Better == "higher" {
		sign = -1
	}
	if def.exact() {
		switch d := sign * (new.Value - old.Value); {
		case d == 0:
			return same
		case d < 0:
			return better
		}
		return worse
	}
	if spread(old.Slices) > def.Bound || spread(new.Slices) > def.Bound {
		if allBeat(new.Slices, old.Slices, sign) {
			return better
		}
		return unresolved
	}
	if old.Value == 0 {
		return unresolved
	}
	switch change := sign * (new.Value - old.Value) / old.Value; {
	case change > def.Bound:
		return worse
	case change < -def.Bound:
		return better
	}
	return same
}

// allBeat reports whether every reading of a is better than every
// reading of b.
func allBeat(a, b []float64, sign float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if sign*(x-y) >= 0 {
				return false
			}
		}
	}
	return true
}

func readReport(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Smoke {
		return nil, fmt.Errorf("%s is a smoke run: it proves the benchmark runs, its numbers measure nothing", path)
	}
	if len(r.Workloads) == 0 {
		return nil, fmt.Errorf("%s holds no workloads", path)
	}
	return &r, nil
}

// compareFiles prints one verdict per end-to-end metric and workload and
// returns the exit code: 1 when anything is worse or a workload's outputs
// were not correct, 2 when the files cannot be compared.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	old, err := readReport(oldPath)
	if err == nil {
		var cur *report
		if cur, err = readReport(newPath); err == nil {
			return compareReports(old, cur, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func compareReports(old, cur *report, stdout io.Writer) int {
	code := 0
	if old.Host.Cores != cur.Host.Cores || old.Host.GOMAXPROCS != cur.Host.GOMAXPROCS {
		fmt.Fprintf(stdout, "note: hosts differ (%d cores/GOMAXPROCS %d vs %d/%d): host time does not compare\n",
			old.Host.Cores, old.Host.GOMAXPROCS, cur.Host.Cores, cur.Host.GOMAXPROCS)
	}
	fmt.Fprintf(stdout, "%-14s %-20s %14s %14s %8s  %s\n", "workload", "metric", "old", "new", "change", "verdict")
	for _, w := range workloads {
		o, okOld := old.Workloads[w.name]
		n, okNew := cur.Workloads[w.name]
		if !okOld || !okNew {
			fmt.Fprintf(stdout, "%-14s missing from one file\n", w.name)
			code = 1
			continue
		}
		if !o.Correct || !n.Correct {
			fmt.Fprintf(stdout, "%-14s outputs not correct (old %v, new %v)\n", w.name, o.Correct, n.Correct)
			code = 1
		}
		for _, def := range endToEnd {
			ov, nv := o.EndToEnd[def.Name], n.EndToEnd[def.Name]
			v := judge(def, ov, nv)
			if v == worse {
				code = 1
			}
			change := 0.0
			if ov.Value != 0 {
				change = 100 * (nv.Value - ov.Value) / ov.Value
			}
			fmt.Fprintf(stdout, "%-14s %-20s %14.6g %14.6g %+7.2f%%  %s\n", w.name, def.Name, ov.Value, nv.Value, change, v)
		}
	}
	return code
}
