package core

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/fabric"
	"repro/internal/mesh"
	"repro/internal/model"
)

// Pattern2D names a 2D Reduce/AllReduce mapping (§7).
type Pattern2D string

// The 2D patterns: X-Y compositions of each 1D pattern (rows first, then
// column 0) plus the Snake chain over the whole grid. XYChain is the
// vendor baseline of Figures 10 and 13. Centre and Split are AllReduces
// only. Centre: every row reduces into its middle PE, the middle column into
// the grid's centre, and the result floods out from there — §6.1's root
// placement in both dimensions. Split: the reduce-scatter/all-gather
// decomposition (Rabenseifner), which moves the vector about twice per PE
// where a reduce and a flood move it three times — every row's ring
// reduce-scatter leaves chunk x of the row's combination on PE (x, y), every
// column x all-reduces that chunk alone, and every row all-gathers; it needs
// B >= W.
const (
	XYStar     Pattern2D = "xy-star"
	XYChain    Pattern2D = "xy-chain"
	XYTree     Pattern2D = "xy-tree"
	XYTwoPhase Pattern2D = "xy-twophase"
	XYAutoGen  Pattern2D = "xy-autogen"
	Snake      Pattern2D = "snake"
	Centre     Pattern2D = "centre"
	Split      Pattern2D = "split"
	Auto2D     Pattern2D = "auto"
)

// Patterns2D lists the concrete (runnable) 2D Reduce patterns, in the
// paper's legend order.
var Patterns2D = []Pattern2D{XYStar, XYChain, XYTree, XYTwoPhase, XYAutoGen, Snake}

// Base1D returns the 1D pattern underlying an X-Y composition, or false
// for Snake, Centre, Split and Auto2D.
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

// PredictReduce2D estimates a 2D Reduce on a width×height grid: X-Y
// patterns cost a row reduce then a column reduce (§7.2); Snake costs a
// chain over all PEs (§7.3). A pattern that is no 2D Reduce — the
// AllReduce-only Centre and Split — costs +Inf.
func PredictReduce2D(pattern Pattern2D, width, height, b int, pr model.Params) float64 {
	if pattern == Snake {
		return pr.SnakeReduce(height, width, b)
	}
	base, ok := pattern.base1D()
	if !ok {
		return math.Inf(1)
	}
	return pr.Then(PredictReduce1D(base, width, b, pr), PredictReduce1D(base, height, b, pr))
}

// PredictAllReduce2D adds the 2D flooding broadcast (§7.4) to the reduce
// into the corner. The centre root reduces every row, then the middle
// column, into their middle PEs as the middle root would (model.MidRootReduce
// over the pairs centreHalves picks), and floods from the centre over its
// largest quadrant, ⌊H/2⌋+1 by ⌊W/2⌋+1 PEs. Split is its three phases one
// after the other (predictSplit); +Inf where B < W leaves a chunk empty.
func PredictAllReduce2D(pattern Pattern2D, width, height, b int, pr model.Params) float64 {
	switch pattern {
	case Centre:
		row, col, _ := centreHalves(width, height, b, pr) // fails for an empty grid only: no trees, no cycles
		return pr.Then(pr.MidRootReduce(row[0].Parent, row[1].Parent, b), pr.MidRootReduce(col[0].Parent, col[1].Parent, b),
			pr.Broadcast2D(height/2+1, width/2+1, b))
	case Split:
		return predictSplit(width, height, b, pr)
	}
	return pr.Then(PredictReduce2D(pattern, width, height, b, pr), pr.Broadcast2D(height, width, b))
}

// BestReduce2D picks the concrete 2D pattern with the lowest predicted
// runtime.
func BestReduce2D(width, height, b int, pr model.Params) (Pattern2D, float64) {
	best, bestT := Pattern2D(""), 0.0
	for _, pat := range Patterns2D {
		t := PredictReduce2D(pat, width, height, b, pr)
		if best == "" || t < bestT {
			best, bestT = pat, t
		}
	}
	return best, bestT
}

// BestAllReduce2D picks what an Auto AllReduce on a grid runs: BestReduce2D's
// pattern into the corner and the flood behind it, or the centre root or the
// split where it prices strictly lower, in that order. The centre root wins
// where distance dominates, short vectors on grids from 8×8 up: each of its
// roots takes two streams per phase. The split wins where the vector is long
// enough for its chunks to outweigh the rounds of its rings.
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

// predictSplit prices the split AllReduce: the rows' ring reduce-scatter,
// every column's AllReduce of its chunk under the schedule BestAllReduce1D
// picks for it, and the rows' AllGather under the schedule BestAllGather
// picks, one after the other. Where W does not divide B, the first B mod W
// chunks are one element longer: their partial sums pace every round of the
// reduce-scatter (model.ReduceScatter), their columns take longer, and so
// those PEs are ready for the AllGather at long, the others at short. The
// AllGather waits for the latest — but through the middle PE less: it takes
// the west half's chunks nearest first, so the short chunks between it and
// the longer ones, ⌊B/W⌋ wavelets each, reach it in the gap. A row of one PE
// has neither row phase, a column of one no column phase. +Inf where B < W.
func predictSplit(width, height, b int, pr model.Params) float64 {
	if width < 1 || height < 1 || b < width {
		return math.Inf(1)
	}
	c, r := b/width, b%width
	// A PE whose chunk has n elements is ready to all-gather once it is
	// through a reduce-scatter as long as a balanced one of n·W elements and
	// through its column's AllReduce of n elements.
	ready := func(n int) float64 {
		_, _, col := BestAllReduce1D(height, n, pr)
		return pr.Then(pr.ReduceScatter(width, n*width), col)
	}
	short, long := ready(c), ready(c+min(r, 1))
	gather, ag := BestAllGather(width, b, pr)
	t := pr.Then(max(short, long), ag)
	if gather == Star {
		t -= min(float64(c*max(0, width/2-r)), max(0, long-short))
	}
	return t
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
			spec.PE(mesh.Coord{X: x, Y: y})
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

// buildSplit compiles the split AllReduce: the rows' ring reduce-scatter,
// then on every column x the AllReduce BestAllReduce1D picks for chunk x,
// on that chunk's window alone, then the rows' AllGather under the schedule
// BestAllGather picks. A row of one PE skips the row phases.
func buildSplit(spec *fabric.Spec, width, height, b int, pr model.Params, op fabric.ReduceOp) error {
	if width < 1 || height < 1 || b < width {
		return fmt.Errorf("core: split AllReduce of B = %d over a %dx%d grid, want B >= W", b, width, height)
	}
	row := func(y int) comm.Lane { return comm.Lane{Path: mesh.Row(y, 0, width), N: b} }
	if width > 1 {
		for y := 0; y < height; y++ {
			if err := comm.BuildReduceScatter(spec, row(y), comm.RingSimple, op); err != nil {
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
		gather, _ := BestAllGather(width, b, pr)
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

// buildReduce2D compiles a 2D reduce into spec.
func buildReduce2D(spec *fabric.Spec, pattern Pattern2D, width, height, b int, pr model.Params, op fabric.ReduceOp) error {
	if pattern == Snake {
		return comm.BuildReduceSnake(spec, width, height, b, op)
	}
	base, ok := pattern.base1D()
	if !ok {
		return fmt.Errorf("core: unknown 2D pattern %q", pattern)
	}
	rowTree, err := TreeFor(base, width, b, pr)
	if err != nil {
		return err
	}
	colTree, err := TreeFor(base, height, b, pr)
	if err != nil {
		return err
	}
	return comm.BuildReduceXY(spec, width, height, rowTree, colTree, b, op)
}
