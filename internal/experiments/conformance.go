package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/plan"
)

// ConformanceRow is one collective kind's line of the conformance table.
type ConformanceRow struct {
	Kind  plan.Kind
	Cells int
	// ErrMeanPct and ErrMaxPct are |measured − predicted| / measured over
	// the kind's cells, in percent: the paper's §8.7 claim is a mean of ~4 %.
	ErrMeanPct, ErrMaxPct float64
	// BoundRatio is the geometric mean of measured / Bound over the kind's
	// Auto cells (Figure 1's optimality ratio, measured instead of modelled).
	BoundRatio float64
	// AutoWorst is the largest ratio of an Auto run's cycles to the best
	// pinned algorithm's at the same geometry and vector length — for the 1D
	// AllReduce, whose Auto also ranges over the middle root, the best of
	// both rows; 0 for the kinds without algorithms.
	AutoWorst float64
}

// Conformance runs every cell of the conformance lattice (plan.Lattice: each
// kind under each algorithm it accepts and under Auto, over the figures'
// range of PE counts and vector lengths) once on the simulator and tabulates,
// per kind, how far the model is from the measurement, how far the model's
// choice is from the bound, and how far it is from the best choice there
// was. The plan package's TestKindTableConformance asserts the same cells.
func Conformance() ([]ConformanceRow, error) {
	type site struct{ p, w, h, b int }
	type tally struct {
		row          ConformanceRow
		errSum       float64
		logSum       float64
		autos        int
		auto, pinned map[site]int64
	}
	tallies := map[plan.Kind]*tally{}
	pin := func(kind plan.Kind, at site, cycles int64) {
		if t := tallies[kind]; t != nil {
			if best, ok := t.pinned[at]; !ok || cycles < best {
				t.pinned[at] = cycles
			}
		}
	}
	for _, req := range plan.Lattice() {
		p, err := plan.Compile(req)
		if err != nil {
			return nil, err
		}
		rep, err := p.Execute(onesInputs(req))
		if err != nil {
			return nil, err
		}
		t := tallies[req.Kind]
		if t == nil {
			t = &tally{row: ConformanceRow{Kind: req.Kind}, auto: map[site]int64{}, pinned: map[site]int64{}}
			tallies[req.Kind] = t
		}
		cycles := float64(rep.Cycles)
		e := 100 * math.Abs(cycles-rep.Predicted) / cycles
		t.row.Cells++
		t.errSum += e
		t.row.ErrMaxPct = math.Max(t.row.ErrMaxPct, e)
		at := site{req.P, req.Width, req.Height, req.B}
		if req.Auto() {
			t.logSum += math.Log(cycles / req.Bound())
			t.autos++
			t.auto[at] = rep.Cycles
			continue
		}
		pin(req.Kind, at, rep.Cycles)
		if req.Kind == plan.AllReduceMidRoot {
			pin(plan.AllReduce1D, at, rep.Cycles)
		}
	}
	var rows []ConformanceRow
	for i := range plan.Kinds {
		t := tallies[plan.Kinds[i].Kind]
		if t == nil {
			continue
		}
		t.row.ErrMeanPct = t.errSum / float64(t.row.Cells)
		t.row.BoundRatio = math.Exp(t.logSum / float64(t.autos))
		for at, cycles := range t.auto {
			if best, ok := t.pinned[at]; ok {
				t.row.AutoWorst = math.Max(t.row.AutoWorst, float64(cycles)/float64(best))
			}
		}
		rows = append(rows, t.row)
	}
	return rows, nil
}

// RenderConformance draws the table.
func RenderConformance(rows []ConformanceRow) string {
	var b strings.Builder
	b.WriteString("conformance — model, bound and Auto against the simulator over the lattice\n")
	fmt.Fprintf(&b, "%-18s %5s %9s %9s %12s %12s\n", "kind", "cells", "err mean", "err max", "cycles/bound", "auto/best")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %5d %8.2f%% %8.2f%% %12.3f", r.Kind, r.Cells, r.ErrMeanPct, r.ErrMaxPct, r.BoundRatio)
		if r.AutoWorst > 0 {
			fmt.Fprintf(&b, " %12.3f", r.AutoWorst)
		} else {
			fmt.Fprintf(&b, " %12s", "-")
		}
		b.WriteString("\n")
	}
	return b.String()
}
