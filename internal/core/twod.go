package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/comm"
	"repro/internal/fabric"
	"repro/internal/mesh"
	"repro/internal/model"
)

// Pattern2D names a 2D Reduce/AllReduce mapping (§7).
type Pattern2D string

// The 2D patterns: X-Y compositions of each 1D pattern (rows first, then
// column 0) plus the Snake chain over the whole grid. XYChain is the
// vendor baseline of Figures 10 and 13. XYAutoGen is this repository's
// searched composition: autogen.End's tree on both phases, and every leaf of
// the column tree streams its row's last transfer up the column where the
// paper's compositions take it whole first. SnakeAutoGen runs autogen.End's
// tree over the Snake's path; Auto weighs it only where its floor undercuts
// every other 2D Reduce. Centre and Split are AllReduces only. Centre: every
// row reduces into its middle PE, the middle column into the grid's centre,
// its leaves streaming as XYAutoGen's do, and the result floods out from
// there — §6.1's root placement in both dimensions. Split: the
// reduce-scatter/all-gather decomposition (Rabenseifner), which moves the
// vector about twice per PE where a reduce and a flood move it three times —
// every row's ring reduce-scatter leaves chunk x of the row's combination on
// PE (x, y), every column x all-reduces that chunk alone, and every row
// all-gathers; it needs B >= W.
const (
	XYStar       Pattern2D = "xy-star"
	XYChain      Pattern2D = "xy-chain"
	XYTree       Pattern2D = "xy-tree"
	XYTwoPhase   Pattern2D = "xy-twophase"
	XYAutoGen    Pattern2D = "xy-autogen"
	Snake        Pattern2D = "snake"
	SnakeAutoGen Pattern2D = "snake-autogen"
	Centre       Pattern2D = "centre"
	Split        Pattern2D = "split"
	Auto2D       Pattern2D = "auto"
)

// Patterns2D lists the 2D Reduce patterns of the paper's figures, in its
// legend order. SnakeAutoGen runs too, but only BestReduce2D and a pinned
// request name it.
var Patterns2D = []Pattern2D{XYStar, XYChain, XYTree, XYTwoPhase, XYAutoGen, Snake}

// Base1D returns the 1D pattern underlying an X-Y composition, or false
// for the Snakes, Centre, Split and Auto2D.
func (p Pattern2D) Base1D() (Pattern, bool) { return p.base1D() }

// base1D returns the 1D pattern underlying an X-Y composition.
func (p Pattern2D) base1D() (Pattern, bool) {
	switch p {
	case XYStar:
		return Star, true
	case XYChain:
		return Chain, true
	case XYTree:
		return Tree, true
	case XYTwoPhase:
		return TwoPhase, true
	case XYAutoGen:
		return AutoGen, true
	}
	return "", false
}

// PredictReduce2D estimates a 2D Reduce on a width×height grid: the paper's
// X-Y patterns cost a row reduce then a column reduce (§7.2), each over
// EndTree's tree; XYAutoGen streams from one into the other and is priced as
// the one path over both (model.CombReduce); Snake costs a chain over all PEs
// (§7.3), and SnakeAutoGen the critical path of its searched tree. A pattern
// that is no 2D Reduce — the AllReduce-only Centre and Split — costs +Inf.
func PredictReduce2D(pattern Pattern2D, width, height, b int, pr model.Params) float64 {
	switch pattern {
	case Snake:
		return pr.SnakeReduce(height, width, b)
	case SnakeAutoGen:
		tree, _ := SnakeTree(width, height, b, pr) // fails for an empty grid only: no tree, no cycles
		return pr.CriticalPath(tree.Parent, b)
	case XYAutoGen:
		row, _ := EndTree(AutoGen, width, b, pr) // these fail for an empty grid only
		col, _ := EndTree(AutoGen, height, b, pr)
		return pr.CombReduce([][]int{row.Parent}, [][]int{col.Parent}, b)
	}
	base, ok := pattern.base1D()
	if !ok {
		return math.Inf(1)
	}
	return pr.Then(predictEndReduce(base, width, b, pr), predictEndReduce(base, height, b, pr))
}

// PredictAllReduce2D adds the 2D flooding broadcast (§7.4) to the reduce
// into the corner. The centre root reduces every row, then the middle
// column, into their middle PEs over the pairs centreHalves picks, its column
// streaming from the rows — one path over both (model.CombReduce) — and
// floods from the centre over its largest quadrant, ⌊H/2⌋+1 by ⌊W/2⌋+1 PEs.
// Split is its three phases one after the other (predictSplit); +Inf where
// B < W leaves a chunk empty.
func PredictAllReduce2D(pattern Pattern2D, width, height, b int, pr model.Params) float64 {
	switch pattern {
	case Centre:
		row, col, _ := centreHalves(width, height, b, pr) // fails for an empty grid only: no trees, no cycles
		return pr.Then(pr.CombReduce([][]int{row[0].Parent, row[1].Parent}, [][]int{col[0].Parent, col[1].Parent}, b),
			pr.Broadcast2D(height/2+1, width/2+1, b))
	case Split:
		_, _, t := predictSplit(width, height, b, pr)
		return t
	}
	return pr.Then(PredictReduce2D(pattern, width, height, b, pr), pr.Broadcast2D(height, width, b))
}

// BestReduce2D picks the concrete 2D pattern with the lowest predicted
// runtime, SnakeAutoGen included where it prices strictly lowest. Its search
// runs only where the floor of any tree over the Snake's W·H PEs — the far
// end's W·H−1 hops, a ramp and one transfer — undercuts the best of the
// others: on a 32×32 grid the search would take a second, and no vector
// length there lets the Snake win.
func BestReduce2D(width, height, b int, pr model.Params) (Pattern2D, float64) {
	best, bestT := Pattern2D(""), 0.0
	for _, pat := range Patterns2D {
		t := PredictReduce2D(pat, width, height, b, pr)
		if best == "" || t < bestT {
			best, bestT = pat, t
		}
	}
	if floor := float64(width*height - 1 + 2*pr.TR + 1 + b + pr.Ctl); floor < bestT {
		if t := PredictReduce2D(SnakeAutoGen, width, height, b, pr); t < bestT {
			best, bestT = SnakeAutoGen, t
		}
	}
	return best, bestT
}

// BestAllReduce2D picks what an Auto AllReduce on a grid runs: BestReduce2D's
// pattern into the corner and the flood behind it, or the centre root or the
// split where it prices strictly lower, in that order. The centre root wins
// where distance dominates, short vectors on grids from 8×8 up: each of its
// roots takes two streams per phase. The split wins where the vector is long
// enough for its chunks to outweigh the rounds of its rings — from 15
// wavelets on at 8×8, where its rows stream both the reduce-scatter and the
// AllGather through the middle PE, each PE starting the AllGather as soon as
// its column is through (118 cycles against X-Y Auto-Gen's 125).
func BestAllReduce2D(width, height, b int, pr model.Params) (Pattern2D, float64) {
	best, _ := BestReduce2D(width, height, b, pr)
	bestT := PredictAllReduce2D(best, width, height, b, pr)
	for _, pat := range []Pattern2D{Centre, Split} {
		if t := PredictAllReduce2D(pat, width, height, b, pr); t < bestT {
			best, bestT = pat, t
		}
	}
	return best, bestT
}

// predictSplit prices the split AllReduce and picks the ring its rows
// reduce-scatter on and the schedule they all-gather under: of
// AllGatherPatterns, the one under which the whole split prices lowest
// (splitUnder), the earlier on a tie. The rows' AllGather is thus weighed
// with what comes before it, and StarStream, priced from every PE's own
// ready cycle, wherever its queue gate admits it. +Inf where B < W.
func predictSplit(width, height, b int, pr model.Params) (ring, gather Pattern, t float64) {
	ring, gather, t = Ring, Ring, math.Inf(1)
	if width < 1 || height < 1 || b < width {
		return ring, gather, t
	}
	// col[e] is a column's AllReduce of a chunk of ⌊B/W⌋ + e elements.
	var col [2]float64
	for e := range min(b%width, 1) + 1 {
		_, _, col[e] = BestAllReduce1D(height, b/width+e, pr)
	}
	for _, pat := range AllGatherPatterns {
		if r, tp := splitUnder(pat, width, b, col, pr); tp < t {
			ring, gather, t = r, pat, tp
		}
	}
	return ring, gather, t
}

// splitUnder prices the split AllReduce whose rows all-gather under gather,
// its columns' AllReduces taking col: the rows' reduce-scatter on the ring
// splitRing picks, every column's AllReduce of its chunk, and the rows'
// AllGather. Where W does not divide B, the first B mod W chunks are one
// element longer: their columns take longer, and so those PEs are ready for
// the AllGather later. Round by round, a PE of an n-element chunk is through
// the reduce-scatter when a balanced one of n·W elements would be (the longer
// chunks' partial sums pace every round, model.ReduceScatter); streamed,
// when model.RingStreamDone says. StarStream starts every PE in the cycle it
// is ready (model.StarStream); the others wait for the latest — but through
// the middle PE less: Star takes the west half's chunks nearest first, so the
// short chunks between it and the longer ones, ⌊B/W⌋ wavelets each, reach it
// in the gap. A row of one PE has neither row phase, a column of one no
// column phase.
func splitUnder(gather Pattern, width, b int, col [2]float64, pr model.Params) (ring Pattern, t float64) {
	c, r := b/width, b%width
	// extra is 1 for a PE of a longer chunk.
	extra := func(x int) int {
		if x < r {
			return 1
		}
		return 0
	}
	ring = splitRing(width, b, gather, pr)
	rs := make([]float64, width)
	if ring == RingStream {
		rs = pr.RingStreamDone(width, b)
	} else {
		for x := range rs {
			rs[x] = pr.ReduceScatter(width, (c+extra(x))*width)
		}
	}
	// A PE is ready to all-gather once it is through the reduce-scatter and
	// its column's AllReduce.
	ready := make([]float64, width)
	var latest [2]float64 // the latest PE of a short chunk, of a longer one
	for x := range ready {
		ready[x] = pr.Then(rs[x], col[extra(x)])
		latest[extra(x)] = max(latest[extra(x)], ready[x])
	}
	if gather == StarStream {
		// Each PE starts in the cycle that retires its column's last
		// control (Then).
		for x := range ready {
			ready[x] -= float64(pr.Ctl)
		}
		return ring, pr.StarStream(width, b, ready)
	}
	short, long := latest[0], latest[1]
	t = pr.Then(max(short, long), PredictAllGather(gather, width, b, pr))
	if gather == Star {
		t -= min(float64(c*max(0, width/2-r)), max(0, long-short))
	}
	return ring, t
}

// splitRing picks the ring the split's rows reduce-scatter on ahead of an
// AllGather under gather: bestRing's, but round by round before the ring
// AllGather. The streamed ring leaves PE 0 last through it, and the ring
// AllGather hides part of that lateness in its wrap-around edge's hops: on
// the 3×3 grid at B = 8 under T_R = 1 of the dense walk's split row
// (internal/plan/dense_test.go, run as TestSplitDense), for one, it runs a
// cycle under its form, which is priced from the latest PE.
func splitRing(width, b int, gather Pattern, pr model.Params) Pattern {
	if ring, _ := bestRing(width, b, pr); ring == RingStream && gather != Ring {
		return RingStream
	}
	return Ring
}

// centreHalves returns the west and east halves the centre root runs on
// every row and on the middle column: in each dimension the pair the middle
// root runs on a row of that length under the tree pattern whose halves
// price lowest (the fold has no halves to run).
func centreHalves(width, height, b int, pr model.Params) (row, col [2]comm.Tree, err error) {
	halves := func(p int) (h [2]comm.Tree, err error) {
		pat, _ := bestMidRootHalves(p, b, pr)
		h[0], h[1], err = MidRootHalves(pat, p, b, pr)
		return h, err
	}
	if row, err = halves(width); err == nil {
		col, err = halves(height)
	}
	return row, col, err
}

// snakeSearches counts SnakeTree's calls, so that a test can see that
// resolving a large grid never searches its Snake.
var snakeSearches atomic.Int64

// SnakeTree is the reduction tree SnakeAutoGen runs over the Snake's path of
// a width×height grid: the end-rooted Auto-Gen search over its W·H PEs. The
// builder, the estimate and the tree a plan records all take it here.
func SnakeTree(width, height, b int, pr model.Params) (comm.Tree, error) {
	snakeSearches.Add(1)
	return EndTree(AutoGen, width*height, b, pr)
}

// BuildReduce2DInto compiles a 2D Reduce into spec without initial data.
func BuildReduce2DInto(spec *fabric.Spec, pattern Pattern2D, width, height, b int, pr model.Params, op fabric.ReduceOp) error {
	return buildReduce2D(spec, pattern, width, height, b, pr, op)
}

// BuildAllReduce2DInto compiles a 2D AllReduce into spec: a 2D Reduce plus
// the 2D broadcast from the corner, the centre root, or the split.
func BuildAllReduce2DInto(spec *fabric.Spec, pattern Pattern2D, width, height, b int, pr model.Params, op fabric.ReduceOp) error {
	switch pattern {
	case Centre:
		row, col, err := centreHalves(width, height, b, pr)
		if err != nil {
			return err
		}
		return comm.BuildAllReduceCentre(spec, width, height, b, row, col, op)
	case Split:
		return buildSplit(spec, width, height, b, pr, op)
	}
	if err := buildReduce2D(spec, pattern, width, height, b, pr, op); err != nil {
		return err
	}
	return comm.BuildBroadcast2D(spec, width, height, mesh.Coord{}, b, comm.ColorBcast2)
}

// BuildBroadcast2DInto compiles a 2D flooding broadcast into spec,
// materialising every PE of the region; the caller sets Init on (0,0).
func BuildBroadcast2DInto(spec *fabric.Spec, width, height, b int) error {
	if b < 1 {
		return fmt.Errorf("core: empty vector")
	}
	if err := comm.BuildBroadcast2D(spec, width, height, mesh.Coord{}, b, comm.ColorBcast2); err != nil {
		return err
	}
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			spec.Program(mesh.Coord{X: x, Y: y})
		}
	}
	return nil
}

// The colors of the split's phases (comm's color budget): the rows' ring
// reduce-scatter takes 0-2, the column AllReduces from splitColumnBase, the
// rows' AllGather from splitGatherBase.
const (
	splitColumnBase mesh.Color = 3
	splitGatherBase mesh.Color = 8
)

// buildSplit compiles the split AllReduce: the rows' reduce-scatter on the
// ring predictSplit picks, then on every column x the AllReduce
// BestAllReduce1D picks for chunk x, on that chunk's window alone, then the
// rows' AllGather under the schedule predictSplit picks. A row of one PE
// skips the row phases.
func buildSplit(spec *fabric.Spec, width, height, b int, pr model.Params, op fabric.ReduceOp) error {
	if width < 1 || height < 1 || b < width {
		return fmt.Errorf("core: split AllReduce of B = %d over a %dx%d grid, want B >= W", b, width, height)
	}
	row := func(y int) comm.Lane { return comm.Lane{Path: mesh.Row(y, 0, width), N: b} }
	ring, gather, _ := predictSplit(width, height, b, pr)
	if width > 1 {
		for y := 0; y < height; y++ {
			if err := buildRingReduceScatter(spec, row(y), ring, op); err != nil {
				return fmt.Errorf("core: row %d: %w", y, err)
			}
		}
	}
	off, sz := Chunks(width, b)
	for x := 0; x < width; x++ {
		pat, midRoot, _ := BestAllReduce1D(height, sz[x], pr)
		lane := comm.Lane{Path: mesh.Column(x, 0, height), Off: off[x], N: sz[x], Base: splitColumnBase}
		if err := buildAllReduce1D(spec, lane, pat, midRoot, pr, op); err != nil {
			return fmt.Errorf("core: column %d: %w", x, err)
		}
	}
	if width > 1 {
		for y := 0; y < height; y++ {
			lane := row(y)
			lane.Base = splitGatherBase
			if err := buildAllGather(spec, lane, gather); err != nil {
				return fmt.Errorf("core: row %d: %w", y, err)
			}
		}
	}
	return nil
}

// buildReduce2D compiles a 2D reduce into spec; of the X-Y compositions,
// XYAutoGen alone streams its hand-off.
func buildReduce2D(spec *fabric.Spec, pattern Pattern2D, width, height, b int, pr model.Params, op fabric.ReduceOp) error {
	switch pattern {
	case Snake:
		return comm.BuildReduceSnake(spec, width, height, b, comm.Chain(width*height), op)
	case SnakeAutoGen:
		tree, err := SnakeTree(width, height, b, pr)
		if err != nil {
			return err
		}
		return comm.BuildReduceSnake(spec, width, height, b, tree, op)
	}
	base, ok := pattern.base1D()
	if !ok {
		return fmt.Errorf("core: unknown 2D pattern %q", pattern)
	}
	rowTree, err := EndTree(base, width, b, pr)
	if err != nil {
		return err
	}
	colTree, err := EndTree(base, height, b, pr)
	if err != nil {
		return err
	}
	return comm.BuildReduceXY(spec, width, height, rowTree, colTree, b, pattern == XYAutoGen, op)
}
