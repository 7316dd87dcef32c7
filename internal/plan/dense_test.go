package plan

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mesh"
)

// The dense walk holds the streamed and searched schedules to the model on
// every shape of a domain. Each schedule is one row of denseRows: its domain,
// its strides, its inputs and the runs of one cell; each engine
// configuration is one line of denseVariants, marked per row. Every run of a
// cell leaves on every PE that holds a result what a plain loop over the
// inputs leaves there, bit for bit, takes no fewer cycles than the bound, and
// reports Predict as its estimate (a pinned schedule's own estimate for a
// schedule built directly through core). A run is also held to its form —
// Predict to the cycle wherever the row's gate admits it under a priced
// configuration — and runs no slower than its rivals. A cell runs each
// (request, schedule, inputs) once: a repeat takes the first run's cycles.
//
// The tests below walk one row each; their subtests are the row's cells, in
// parallel. Under the race detector and -short a row walks every stride-th
// cell of its domain.

func TestRingStreamRunsAtItsEstimate(t *testing.T) { dense(t, "ring-stream") }
func TestStarStreamRunsAtItsEstimate(t *testing.T) { dense(t, "star-stream") }
func TestAllGatherDense(t *testing.T)              { dense(t, "allgather") }
func TestSplitDense(t *testing.T)                  { dense(t, "split") }
func TestFoldDense(t *testing.T)                   { dense(t, "fold") }
func TestGridSearchRunsAtItsEstimate(t *testing.T) { dense(t, "grid-search") }
func TestCentreRunsAtItsEstimate(t *testing.T)     { dense(t, "centre") }

// TestDenseCellCounts pins the number of cells in every row's domain, so an
// edit of the table cannot drop a cell unseen.
func TestDenseCellCounts(t *testing.T) {
	want := map[string]int{"ring-stream": 816, "star-stream": 852, "allgather": 80, "split": 352, "fold": 157, "grid-search": 900, "centre": 395}
	if len(denseRows) != len(want) {
		t.Errorf("%d rows, %d pinned", len(denseRows), len(want))
	}
	for i := range denseRows {
		if r := &denseRows[i]; len(r.cells()) != want[r.name] {
			t.Errorf("%s: %d cells, pinned at %d", r.name, len(r.cells()), want[r.name])
		}
	}
	for _, v := range denseVariants {
		if len(v.marks) != len(denseRows) {
			t.Errorf("%+v marks %d rows of %d", v.opt, len(v.marks), len(denseRows))
		}
	}
}

// denseVariants are the engine configurations of the walk. Each carries one
// mark per row of denseRows, in order: p runs it as a configuration the
// model prices, r as one it does not, and . skips it.
var denseVariants = []struct {
	opt   fabric.Options
	marks string
}{
	// ring-stream, star-stream, allgather, split, fold, grid-search, centre
	{fabric.Options{}, "ppppppp"},
	{fabric.Options{QueueCap: 1}, "rpr..r."},
	{fabric.Options{QueueCap: 2}, "rprrpr."},
	{fabric.Options{QueueCap: 3}, "rp....."},
	{fabric.Options{QueueCap: 8}, "rpr...."},
	{fabric.Options{QueueCap: 16}, "rp.rpr."},
	{fabric.Options{TR: -1}, "rpr...."},
	{fabric.Options{TR: 1}, "rp.pp.."},
	{fabric.Options{TR: 3}, "rp.pp.."},
	{fabric.Options{TR: 4}, "rp....."},
	{fabric.Options{ClockSkewMax: 50, ThermalNoopRate: 0.2, Seed: 7}, "rrr...."},
	{fabric.Options{TaskActivation: 3}, "rpr.r.."},
	{fabric.Options{Shards: 3}, "rprpp.."},
	{fabric.Options{Shards: 1}, "..r...."},
	{fabric.Options{ClockSkewMax: 50, Seed: 7}, "....r.."},
	{fabric.Options{ThermalNoopRate: 0.02, Seed: 7}, "....r.."},
	{fabric.Options{ClockSkewMax: 8, Seed: 3}, ".....r."},
	{fabric.Options{ThermalNoopRate: 0.05, Seed: 5}, ".....r."},
}

// noiseSeeds is how many seeds of a configuration with thermal no-ops a run
// and its rival are summed over when the run came out slower: the no-ops land
// on the two programs at random, so where the margin is a cycle either can
// draw the worse run.
const noiseSeeds = 8

// A denseRow is one schedule's sweep. Its domain is every shape at each of
// bs(W) wavelets, up to maxVolume PE-wavelets.
type denseRow struct {
	name      string
	grid      bool     // cells are W×H grids, named WxH/b=B; else rows of P = W PEs, named p=P/b=B
	shapes    [][2]int // W, H
	bs        func(w int) []int
	maxVolume int // 0: no limit
	// race and short are the strides under the race detector and -short (0:
	// every cell). A strided walk takes the stride-th cell and every
	// stride-th after it.
	race, short int
	// perturbEvery: an r-marked configuration runs on every perturbEvery-th
	// cell of the walk (0: every one).
	perturbEvery int
	// sets are a cell's input sets, one per operator the row runs; runs are
	// what one set runs under one configuration.
	sets func(c denseCell) []denseSet
	runs func(c denseCell, opt fabric.Options, priced bool, s denseSet) []denseRun
	// gate, where set, is the estimate of the row's form under default
	// options: some cell of the walk must price it finite.
	gate func(c denseCell) float64
	// tally names the guard a cell counts towards (-1: none), read from the
	// plan the cell's first run compiled; guards says what some cell of the
	// walk must do, one guard per tally value. A strided walk is held to the
	// first guard alone, and a walk that -run filtered to fewer cells to none.
	tally  func(c denseCell, first *Plan) int
	guards []string
}

// A denseCell is one shape of a row's domain and its place n there, from 1.
type denseCell struct{ w, h, b, n int }

// A denseSet is one input set of a cell and the operator it is combined by.
type denseSet struct {
	op fabric.ReduceOp
	in [][]float32
}

// A denseRun is one engine run of a cell and what it is held to beyond the
// checks every run meets.
type denseRun struct {
	req Request
	alg core.Pattern // a ReduceScatter or AllGather schedule built directly through core; "" compiles req
	in  [][]float32  // nil: ramp inputs of req's layout
	// noisy are inputs whose combination depends on the order: the run's
	// program walks them in one ExecuteBatch with in (one recording run),
	// and must leave on every PE the bits twin's schedule leaves on them.
	noisy  [][]float32
	twin   core.Pattern
	form   denseForm
	ref    *denseRun
	rivals []denseRun // runs it takes no more cycles than
}

// denseForm is the cycle count a run is held to.
type denseForm int

const (
	unpriced      denseForm = iota // none
	exact                          // Predict's, plus ref's own error where ref is set (the split's column)
	exactWhereRef                  // Predict's wherever ref runs at its own (the fold and the end-rooted chain)
)

func priceIf(priced bool) denseForm {
	if priced {
		return exact
	}
	return unpriced
}

// denseRows is the domain table. Each row seeds its inputs its own way: a
// new seed would give every cell of the row new inputs.
var denseRows = []denseRow{{
	// The streamed ring ReduceScatter (core.RingStream). Under default
	// options, wherever the gate admits it, it runs at Predict with Sum and
	// Max, and leaves the ring's bits on inputs whose sum depends on the
	// order. Under every other configuration Auto's ReduceScatter — and, up
	// to 20 PEs, the split AllReduce of two such rows — finishes with the
	// host loop's bits, and wherever Auto streams the ring it runs no slower
	// than the ring.
	name: "ring-stream", shapes: rowsOf(append(span(2, 20), 33, 64, 100, 256)...), bs: streamB,
	race: 29, short: 7,
	sets: func(c denseCell) []denseSet {
		req := Request{Kind: ReduceScatter, P: c.w, B: c.b}
		return []denseSet{
			{fabric.OpSum, denseInputs(req, streamSeed(c), smallInts)[0]},
			{fabric.OpMax, denseInputs(req, streamSeed(c)+int64(fabric.OpMax), smallInts)[0]},
		}
	},
	runs: func(c denseCell, opt fabric.Options, priced bool, s denseSet) []denseRun {
		rs := Request{Kind: ReduceScatter, P: c.w, B: c.b, Op: s.op, Opt: opt}
		if priced {
			if math.IsInf(core.PredictReduceScatter(core.RingStream, c.w, c.b, core.Params(opt)), 1) {
				return nil
			}
			run := denseRun{req: rs, alg: core.RingStream, in: s.in, form: exact}
			if s.op == fabric.OpSum {
				run.noisy, run.twin = denseInputs(rs, streamSeed(c), normals)[0], core.Ring
			}
			return []denseRun{run}
		}
		if s.op != fabric.OpSum {
			return nil // the operator moves no cycle
		}
		auto := denseRun{req: rs, in: s.in}
		if rs.Resolve().Alg == core.RingStream {
			auto.rivals = []denseRun{{req: rs, alg: core.Ring, in: s.in}}
		}
		runs := []denseRun{auto}
		if c.w <= 20 {
			split := Request{Kind: AllReduce2D, Alg2D: core.Split, Width: c.w, Height: 2, B: c.b, Op: s.op, Opt: opt}
			runs = append(runs, denseRun{req: split, in: denseInputs(split, streamSeed(c), smallInts)[0]})
		}
		return runs
	},
	gate: func(c denseCell) float64 {
		return core.PredictReduceScatter(core.RingStream, c.w, c.b, core.Params(fabric.Options{}))
	},
}, {
	// The streamed middle-root AllGather (core.StarStream). Under every
	// configuration its gate admits, it leaves the inputs' concatenation on
	// every PE and runs at Predict — under thermal no-ops only the bits.
	name: "star-stream", shapes: rowsOf(append(span(2, 20), 33, 64, 100, 256, 300)...), bs: streamB,
	race: 29, short: 7,
	sets: func(c denseCell) []denseSet {
		return []denseSet{{in: denseInputs(Request{Kind: AllGather, P: c.w, B: c.b}, streamSeed(c), normals)[0]}}
	},
	runs: func(c denseCell, opt fabric.Options, priced bool, s denseSet) []denseRun {
		if math.IsInf(core.PredictAllGather(core.StarStream, c.w, c.b, core.Params(opt)), 1) {
			return nil // outside the gate its program can deadlock
		}
		return []denseRun{{req: Request{Kind: AllGather, P: c.w, B: c.b, Opt: opt}, alg: core.StarStream, in: s.in, form: priceIf(priced)}}
	},
	gate: func(c denseCell) float64 {
		return core.PredictAllGather(core.StarStream, c.w, c.b, core.Params(fabric.Options{}))
	},
}, {
	// Every AllGather schedule that runs there (allGatherSchedules), on powers
	// of two, one past them and odd P, where the middle PE splits the row
	// unevenly. Under default options each runs at its estimate and Auto is
	// no slower than any of them.
	name: "allgather", shapes: rowsOf(2, 3, 4, 5, 8, 9, 16, 17, 33, 64, 100, 256), bs: func(p int) []int { return wTimes(p, []int{1, 2, 3, 4, 8, 16, 64}, 0) }, maxVolume: 1 << 18,
	race: 5,
	sets: func(c denseCell) []denseSet {
		return []denseSet{{in: denseInputs(Request{Kind: AllGather, P: c.w, B: c.b}, int64(c.w*c.b), normals)[0]}}
	},
	runs: func(c denseCell, opt fabric.Options, priced bool, s denseSet) []denseRun {
		ag := Request{Kind: AllGather, P: c.w, B: c.b, Opt: opt}
		var runs []denseRun
		for _, alg := range allGatherSchedules(ag) {
			runs = append(runs, denseRun{req: ag, alg: alg, in: s.in, form: priceIf(priced)})
		}
		if priced {
			runs = append(runs, denseRun{req: ag, in: s.in, rivals: slices.Clone(runs)})
		}
		return runs
	},
}, {
	// The split AllReduce on every square grid from 2×2 to 17×17, oblong
	// grids both ways, single rows and a column, and rows of 18 to 32 PEs —
	// where the reduce-scatter's finishes, and so the AllGather's starts,
	// spread farthest. Under the priced configurations a run misses Predict
	// by exactly its columns' own 1D AllReduce error. Its rows all-gather
	// through whichever schedule prices the split lowest: the streamed middle
	// root, priced from every PE's own ready cycle, must be picked on rows of
	// 17 PEs or fewer and on wider ones.
	name: "split", grid: true, shapes: splitGrids(), maxVolume: 1 << 16,
	bs: func(w int) []int {
		if w == 1 {
			return wTimes(w, []int{1, 2, 5, 16}, 0)
		}
		return wTimes(w, []int{1, 2, 5, 16}, 0, 1, w-1)
	},
	race: 5,
	sets: func(c denseCell) []denseSet {
		in := denseInputs(Request{Kind: AllReduce2D, Width: c.w, Height: c.h, B: c.b}, int64(c.w*1000+c.h*100+c.b), smallInts, normals)
		return []denseSet{{fabric.OpSum, in[0]}, {fabric.OpMax, in[1]}}
	},
	runs: func(c denseCell, opt fabric.Options, priced bool, s denseSet) []denseRun {
		run := denseRun{req: Request{Kind: AllReduce2D, Alg2D: core.Split, Width: c.w, Height: c.h, B: c.b, Op: s.op, Opt: opt}, in: s.in, form: priceIf(priced)}
		if c.h > 1 {
			run.ref = &denseRun{req: Request{Kind: AllReduce1D, Alg: core.Auto, P: c.h, B: (c.b + c.w - 1) / c.w, Opt: opt}}
		}
		return []denseRun{run}
	},
	tally: func(c denseCell, first *Plan) int { // first: Sum under default options
		if rowsStream(first.Spec, c.w, c.h) {
			return min(c.w/18, 1)
		}
		return -1
	},
	guards: []string{
		"all-gathers rows of up to 17 PEs through the streamed middle root",
		"all-gathers rows of 18 PEs or more through the streamed middle root",
	},
}, {
	// The middle root's fold on rows of 1 to 9 PEs and both sides of every
	// power of two up to 257. Under the priced configurations it takes no
	// longer than the end-rooted chain AllReduce, and runs at its estimate
	// wherever that chain does.
	name: "fold", shapes: rowsOf(append(span(1, 9), 15, 16, 17, 31, 32, 33, 63, 64, 65, 128, 129, 257)...),
	bs: fixedB(1, 2, 5, 16, 33, 255, 256, 1024), maxVolume: 1 << 15,
	race: 5,
	sets: func(c denseCell) []denseSet {
		in := denseInputs(Request{Kind: AllReduceMidRoot, P: c.w, B: c.b}, int64(c.w*10000+c.b), smallInts, normals)
		return []denseSet{{fabric.OpSum, in[0]}, {fabric.OpMax, in[1]}}
	},
	runs: func(c denseCell, opt fabric.Options, priced bool, s denseSet) []denseRun {
		run := denseRun{req: Request{Kind: AllReduceMidRoot, Alg: core.Fold, P: c.w, B: c.b, Op: s.op, Opt: opt}, in: s.in}
		if priced && s.op == fabric.OpSum { // the operator moves no cycle
			chain := denseRun{req: Request{Kind: AllReduce1D, Alg: core.Chain, P: c.w, B: c.b, Op: s.op, Opt: opt}, in: s.in}
			run.form, run.ref, run.rivals = exactWhereRef, &chain, []denseRun{chain}
		}
		return []denseRun{run}
	},
}, {
	// The grid's searched schedules: xy-autogen streaming its column from its
	// rows as a Reduce and inside the AllReduce, the centre root, and
	// Auto-Gen's tree over the Snake — never over 1024 PEs, where no vector
	// length lets Auto pick it (TestSnakeFloorPrunes) — on every W, H up to
	// 12 and the lattice's grids. Every ninth cell of the walk runs under
	// perturbed configurations too, where only the bits must hold.
	name: "grid-search", grid: true, shapes: append(gridsOf(span(1, 12), span(1, 12)), [][2]int{{16, 16}, {17, 17}, {32, 32}, {8, 32}, {32, 8}, {5, 7}}...),
	bs: fixedB(1, 2, 4, 16, 64, 256), maxVolume: 1 << 18,
	race: 31, short: 7, perturbEvery: 9,
	sets: func(c denseCell) []denseSet {
		return []denseSet{{fabric.ReduceOp(c.n % 3), denseInputs(Request{Kind: Reduce2D, Width: c.w, Height: c.h, B: c.b}, int64(c.n), smallInts)[0]}}
	},
	runs: func(c denseCell, opt fabric.Options, priced bool, s denseSet) []denseRun {
		at := func(kind Kind, alg core.Pattern2D) denseRun {
			return denseRun{req: Request{Kind: kind, Alg2D: alg, Width: c.w, Height: c.h, B: c.b, Op: s.op, Opt: opt}, in: s.in, form: priceIf(priced)}
		}
		runs := []denseRun{at(Reduce2D, core.XYAutoGen), at(AllReduce2D, core.XYAutoGen), at(AllReduce2D, core.Centre)}
		if c.w*c.h < 1024 {
			runs = append(runs, at(Reduce2D, core.SnakeAutoGen))
		}
		return runs
	},
}, {
	// The centre-rooted 2D AllReduce on square and oblong grids, odd and even
	// sides, a single row or column, at its estimate to the cycle.
	name: "centre", grid: true, shapes: gridsOf([]int{1, 2, 3, 5, 8, 9, 16, 17, 32}, []int{1, 2, 3, 5, 8, 9, 16, 17, 32}),
	bs: fixedB(1, 4, 16, 64, 256), maxVolume: 1 << 16,
	sets: func(c denseCell) []denseSet {
		return []denseSet{{fabric.ReduceOp((c.w + c.h + c.b) % 3), denseInputs(Request{Kind: AllReduce2D, Width: c.w, Height: c.h, B: c.b}, 0, cyclic)[0]}}
	},
	runs: func(c denseCell, opt fabric.Options, priced bool, s denseSet) []denseRun {
		return []denseRun{{req: Request{Kind: AllReduce2D, Alg2D: core.Centre, Width: c.w, Height: c.h, B: c.b, Op: s.op, Opt: opt}, in: s.in, form: priceIf(priced)}}
	},
}}

// streamB gives the streamed schedules' B = P·m + r for m up to 12 elements
// a PE and r of 0, 1 and P/2: balanced chunks, one longer chunk, and half of
// them longer (on 2 PEs, where 1 is P/2, one longer chunk once).
func streamB(p int) []int {
	if p == 2 {
		return wTimes(p, span(1, 12), 0, 1)
	}
	return wTimes(p, span(1, 12), 0, 1, p/2)
}

// streamSeed seeds the streamed rows' inputs.
func streamSeed(c denseCell) int64 { return int64(c.w*10007 + c.b) }

// wTimes gives B = W·m + r for each m, then each r.
func wTimes(w int, ms []int, rs ...int) []int {
	var bs []int
	for _, m := range ms {
		for _, r := range rs {
			bs = append(bs, w*m+r)
		}
	}
	return bs
}

// fixedB gives the same lengths at every W.
func fixedB(bs ...int) func(int) []int { return func(int) []int { return bs } }

func span(lo, hi int) []int {
	var s []int
	for v := lo; v <= hi; v++ {
		s = append(s, v)
	}
	return s
}

func rowsOf(ps ...int) [][2]int { return gridsOf(ps, []int{1}) }

// gridsOf is every W×H, W outermost.
func gridsOf(ws, hs []int) [][2]int {
	var g [][2]int
	for _, w := range ws {
		for _, h := range hs {
			g = append(g, [2]int{w, h})
		}
	}
	return g
}

// splitGrids are the split's grids: squares, then the rest.
func splitGrids() [][2]int {
	var g [][2]int
	for side := 2; side <= 17; side++ {
		g = append(g, [2]int{side, side})
	}
	return append(g, [][2]int{{2, 5}, {5, 2}, {3, 8}, {8, 3}, {4, 16}, {16, 4}, {7, 12}, {12, 7},
		{5, 1}, {16, 1}, {17, 1}, {1, 6}, {18, 18}, {24, 24}, {32, 32}, {32, 4}}...)
}

// cells lists the row's domain, numbered from 1.
func (r *denseRow) cells() []denseCell {
	var cells []denseCell
	for _, s := range r.shapes {
		for _, b := range r.bs(s[0]) {
			if r.maxVolume == 0 || s[0]*s[1]*b <= r.maxVolume {
				cells = append(cells, denseCell{w: s[0], h: s[1], b: b, n: len(cells) + 1})
			}
		}
	}
	return cells
}

func (r *denseRow) stride() int {
	switch {
	case raceEnabled && r.race > 0:
		return r.race
	case testing.Short() && r.short > 0:
		return r.short
	}
	return 1
}

// dense walks the row named name.
func dense(t *testing.T, name string) {
	col := slices.IndexFunc(denseRows, func(r denseRow) bool { return r.name == name })
	row := &denseRows[col]
	stride, cells, walked, admitted := row.stride(), row.cells(), 0, 0
	var ran atomic.Int32
	tallies := make([]atomic.Int32, len(row.guards))
	t.Cleanup(func() {
		if row.gate != nil && admitted == 0 {
			t.Error("the gate admitted no shape of the walk")
		}
		for k, guard := range row.guards {
			if (k == 0 || stride == 1) && int(ran.Load()) == walked && tallies[k].Load() == 0 {
				t.Errorf("no cell of the walk %s", guard)
			}
		}
	})
	for _, c := range cells {
		if c.n%stride != 0 {
			continue
		}
		walked++
		if row.gate != nil && !math.IsInf(row.gate(c), 1) {
			admitted++
		}
		label := fmt.Sprintf("p=%d/b=%d", c.w, c.b)
		if row.grid {
			label = fmt.Sprintf("%dx%d/b=%d", c.w, c.h, c.b)
		}
		t.Run(label, func(t *testing.T) {
			t.Parallel()
			ran.Add(1)
			x := &denseExec{t: t, done: map[denseKey]denseResult{}}
			sets := row.sets(c)
			for _, v := range denseVariants {
				mark := v.marks[col]
				if mark == '.' || mark == 'r' && c.n%(stride*max(row.perturbEvery, 1)) != 0 {
					continue
				}
				for _, s := range sets {
					for _, r := range row.runs(c, v.opt, mark == 'p', s) {
						x.hold(r)
					}
				}
			}
			if row.tally != nil {
				if k := row.tally(c, x.first); k >= 0 {
					tallies[k].Add(1)
				}
			}
		})
	}
	t.Logf("%s: %d of %d cells (stride %d)", name, walked, len(cells), stride)
}

// denseExec runs the runs of one cell.
type denseExec struct {
	t     *testing.T
	done  map[denseKey]denseResult
	first *Plan // the plan of the cell's first run
}

// denseKey names a run by what it runs: the request, under its options, or
// the schedule built directly, on its inputs.
type denseKey struct {
	key Key
	alg core.Pattern
	in  *[]float32
}

type denseResult struct {
	cycles    int64
	predicted float64
}

// hold runs r and holds it to its form and its rivals.
func (x *denseExec) hold(r denseRun) {
	t := x.t
	t.Helper()
	got := x.run(r)
	label := fmt.Sprintf("%s %s", KeyOf(r.req), r.alg)
	switch miss := float64(got.cycles) - got.predicted; r.form {
	case exact:
		var want float64
		if r.ref != nil {
			ref := x.run(*r.ref)
			want = float64(ref.cycles) - ref.predicted
		}
		if miss != want {
			t.Errorf("%s: %d cycles, predicted %v, the form's own error %v", label, got.cycles, got.predicted, want)
		}
	case exactWhereRef:
		if ref := x.run(*r.ref); float64(ref.cycles) == ref.predicted && miss != 0 {
			t.Errorf("%s: %d cycles, predicted %v (%s runs at its %v)", label, got.cycles, got.predicted, KeyOf(r.ref.req), ref.predicted)
		}
	}
	for _, rival := range r.rivals {
		mine, theirs := got.cycles, x.run(rival).cycles
		if mine > theirs && r.req.Opt.ThermalNoopRate > 0 {
			me := r
			for i := 1; i < noiseSeeds; i++ {
				me.req.Opt.Seed++
				rival.req.Opt.Seed++
				mine += x.run(me).cycles
				theirs += x.run(rival).cycles
			}
		}
		if mine > theirs {
			t.Errorf("%s: %d cycles, %s %s takes %d", label, mine, KeyOf(rival.req), rival.alg, theirs)
		}
	}
}

// run executes r unless the cell ran it already, and holds every PE with a
// result to the host loop, the cycles to the bound, and the estimate to
// Predict's.
func (x *denseExec) run(r denseRun) denseResult {
	t := x.t
	t.Helper()
	k := denseKey{key: KeyOf(r.req), alg: r.alg}
	if r.in != nil {
		k.in = &r.in[0]
	}
	if got, ok := x.done[k]; ok {
		return got
	}
	in := r.in
	if in == nil {
		in = r.req.Inputs(ramp)
	}
	batch := [][][]float32{in}
	if r.noisy != nil {
		batch = append(batch, r.noisy)
	}
	label := fmt.Sprintf("%s %s", KeyOf(r.req), r.alg)
	pl, reps := x.exec(r.req, r.alg, batch)
	rep := reps[0]
	holdsHostLoop(t, pl, r.req, in, rep, label)
	if bound := r.req.Bound(); float64(rep.Cycles) < bound {
		t.Errorf("%s: %d cycles, under the bound %v", label, rep.Cycles, bound)
	}
	if r.alg == "" {
		if want := r.req.Predict(); math.Float64bits(rep.Predicted) != math.Float64bits(want) {
			t.Errorf("%s: Report.Predicted %v, Predict %v", label, rep.Predicted, want)
		}
	}
	if r.noisy != nil {
		_, twin := x.exec(r.req, r.twin, [][][]float32{r.noisy})
		for c, acc := range twin[0].All {
			sameBitsVec(t, acc, reps[1].All[c], fmt.Sprintf("%s: PE %v on noisy inputs against %s", label, c, r.twin))
		}
	}
	x.done[k] = denseResult{rep.Cycles, rep.Predicted}
	return x.done[k]
}

// exec compiles req — or builds schedule alg directly, when set — and runs it
// once per batch entry: one engine run, and tape walks for more than one.
func (x *denseExec) exec(req Request, alg core.Pattern, batch [][][]float32) (*Plan, []*core.Report) {
	x.t.Helper()
	var pl *Plan
	var err error
	if alg == "" {
		pl, err = Compile(req)
	} else {
		pl, err = schedulePlan(req, alg)
	}
	var reps []*core.Report
	if err == nil {
		reps, err = pl.ExecuteBatch(nil, batch, ExecOptions{})
	}
	if err != nil {
		x.t.Fatalf("%s %s: %v", KeyOf(req), alg, err)
	}
	if x.first == nil {
		x.first = pl
	}
	return pl, reps
}

// holdsHostLoop holds every PE a run leaves a result on to what a plain loop
// over the inputs leaves there, bit for bit: their combination — chunk j of
// it on PE j for a ReduceScatter, the root alone for a 2D Reduce — or, for
// an AllGather, their concatenation.
func holdsHostLoop(t *testing.T, pl *Plan, req Request, in [][]float32, rep *core.Report, label string) {
	t.Helper()
	want := slices.Concat(in...)
	if req.Kind != AllGather {
		want = slices.Clone(in[0])
		for _, v := range in[1:] {
			for j, x := range v {
				want[j] = req.Op.Apply(want[j], x)
			}
		}
	}
	pes := len(in)
	if req.Kind == Reduce2D {
		pes = 1
	}
	var off, sz []int
	if req.Kind == ReduceScatter {
		off, sz = core.Chunks(req.P, req.B)
	}
	for j := 0; j < pes; j++ {
		c := pl.inputCoord(j)
		got, w := rep.All[c], want
		if off != nil {
			got, w = got[off[j]:off[j]+sz[j]], want[off[j]:off[j]+sz[j]]
		}
		sameBitsVec(t, w, got, fmt.Sprintf("%s: PE %v", label, c))
	}
}

// A denseFill draws value i of an input set.
type denseFill func(rng *rand.Rand, i int) float32

var (
	// smallInts are integers in [-9, 9], which every operator combines
	// exactly in any order.
	smallInts denseFill = func(rng *rand.Rand, _ int) float32 { return float32(rng.Intn(19) - 9) }
	// normals are not integers, so a reduction applied in another order, or
	// landing on another element, shows in the bits.
	normals denseFill = func(rng *rand.Rand, _ int) float32 { return float32(rng.NormFloat64()) * 3.7 }
	// cyclic is (i+1)·7 mod 13, drawing nothing.
	cyclic denseFill = func(_ *rand.Rand, i int) float32 { return float32((i + 1) * 7 % 13) }
)

// denseInputs draws one input set of req's layout per fill, in order, all
// from one source seeded with seed.
func denseInputs(req Request, seed int64, fills ...denseFill) [][][]float32 {
	rng := rand.New(rand.NewSource(seed))
	sets := make([][][]float32, len(fills))
	for k, fill := range fills {
		i := 0
		sets[k] = req.Inputs(func(n int) []float32 {
			v := make([]float32, n)
			for j := range v {
				v[j] = fill(rng, i)
				i++
			}
			return v
		})
	}
	return sets
}

// allGatherSchedules lists the AllGather schedules that run at req: every one
// of core.AllGatherPatterns but the streamed middle root outside its gate,
// where the model prices it at +Inf and its program can deadlock.
func allGatherSchedules(req Request) []core.Pattern {
	pr := core.Params(req.Opt)
	return slices.DeleteFunc(slices.Clone(core.AllGatherPatterns), func(alg core.Pattern) bool {
		return alg == core.StarStream && math.IsInf(core.PredictAllGather(alg, req.P, req.B, pr), 1)
	})
}

// rowsStream reports whether every row of a compiled grid program ends with
// the streamed middle root's AllGather: its middle PE's last W ops flood
// each chunk the op after it took it, W − 1 full-duplex OpSendRecvStore ops
// and one OpSend, all out on one color, and every other PE of the row takes
// the W − 1 chunks after the first in its last W − 1 ops, OpRecvStore on
// that color. It reads the program, not the model's pick.
func rowsStream(spec *fabric.Spec, w, h int) bool {
	if w < 2 {
		return false
	}
	for y := 0; y < h; y++ {
		ops := spec.Program(mesh.Coord{X: w / 2, Y: y}).Ops
		if len(ops) < w || ops[len(ops)-1].Kind != fabric.OpSend {
			return false
		}
		flood := ops[len(ops)-1].Color
		for _, op := range ops[len(ops)-w : len(ops)-1] {
			if op.Kind != fabric.OpSendRecvStore || op.OutColor != flood {
				return false
			}
		}
		for x := 0; x < w; x++ {
			if x == w/2 {
				continue
			}
			ops := spec.Program(mesh.Coord{X: x, Y: y}).Ops
			if len(ops) < w-1 {
				return false
			}
			for _, op := range ops[len(ops)-(w-1):] {
				if op.Kind != fabric.OpRecvStore || op.Color != flood {
					return false
				}
			}
		}
	}
	return true
}

// TestRowsStreamReadsTheProgram: rowsStream tells the streamed middle root
// from the other three AllGathers on rows of 2 to 17 PEs.
func TestRowsStreamReadsTheProgram(t *testing.T) {
	for p := 2; p <= 17; p++ {
		for _, b := range []int{p, 3*p + 1} {
			for _, pat := range core.AllGatherPatterns {
				spec := fabric.NewSpec(p, 1)
				if err := core.BuildAllGatherInto(spec, pat, p, b); err != nil {
					t.Fatalf("p=%d b=%d %s: %v", p, b, pat, err)
				}
				if got := rowsStream(spec, p, 1); got != (pat == core.StarStream) {
					t.Errorf("p=%d b=%d %s: rowsStream %v", p, b, pat, got)
				}
			}
		}
	}
}
