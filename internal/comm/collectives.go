package comm

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/mesh"
)

// Standard color assignments. 1D collectives use colors 0-1 for the tree
// and 2 for the broadcast; 2D X-Y collectives use 0-1 for rows, 2-3 for
// the column phase and 4 for the 2D broadcast, matching the paper's budget
// of ≤3 colors in 1D and ≤5 in 2D (§8.2). The middle root uses 5: 0-1 and
// 2-3 for its halves, 4 for the flood; its AllGather 0 and 1 for the halves'
// gathers and 4 for the flood, and the gather-flood one, ColorFlood. The
// centre root uses 9 of the fabric's 24: the middle root's 5 in every row,
// and 5-6 and 7-8 for the halves of the middle column. The measurement
// harness's trigger rides on TriggerColor, 23, on top.
const (
	ColorTreeA  mesh.Color = 0
	ColorTreeB  mesh.Color = 1
	ColorBcast  mesh.Color = 2
	ColorColA   mesh.Color = 2
	ColorColB   mesh.Color = 3
	ColorBcast2 mesh.Color = 4
	// TriggerColor carries the start trigger of the §8.3 measurement
	// methodology.
	TriggerColor mesh.Color = 23
)

// The color pairs of the two halves of a middle-root reduce: west, then east.
// A row uses rowHalves; the centre root's middle column, columnHalves.
var (
	rowHalves    = [2]ColorPair{{0, 1}, {2, 3}}
	columnHalves = [2]ColorPair{{5, 6}, {7, 8}}
)

// TreeOf builds the reduction tree of a named 1D pattern. Auto-Gen trees
// come from the autogen package instead and are passed to BuildTreeReduce
// directly.
func TreeOf(pattern string, p int) (Tree, error) {
	if p < 1 {
		return Tree{}, fmt.Errorf("comm: %d PEs", p)
	}
	if p == 1 {
		return Single(), nil
	}
	switch pattern {
	case "star":
		return Star(p), nil
	case "chain":
		return Chain(p), nil
	case "tree":
		return Binomial(p), nil
	case "twophase":
		return TwoPhase(p, 0), nil
	}
	return Tree{}, fmt.Errorf("comm: unknown pattern %q", pattern)
}

// BuildReduce1D compiles a tree Reduce along a path, rooted at path index
// 0, using the standard 1D colors.
func BuildReduce1D(spec *fabric.Spec, path mesh.Path, tree Tree, b int, op fabric.ReduceOp) error {
	return BuildTreeReduce(spec, path, tree, b, ColorPair{ColorTreeA, ColorTreeB}, op)
}

// BuildAllReduce1D compiles the paper's Reduce-then-Broadcast AllReduce
// (§6.1) along a path: a tree Reduce to path index 0 followed by a
// flooding broadcast of the result.
func BuildAllReduce1D(spec *fabric.Spec, path mesh.Path, tree Tree, b int, op fabric.ReduceOp) error {
	if err := BuildReduce1D(spec, path, tree, b, op); err != nil {
		return err
	}
	return BuildBroadcast(spec, path, b, ColorBcast)
}

// BuildReduceXY compiles the 2D X-Y Reduce of §7.2 on a width×height
// grid: rowTree reduces every row to column 0 (all rows share colors 0-1;
// rows are link-disjoint), then colTree reduces column 0 to (0,0) on
// colors 2-3.
//
// rowTree must have width vertices and colTree height vertices.
func BuildReduceXY(spec *fabric.Spec, width, height int, rowTree, colTree Tree, b int, op fabric.ReduceOp) error {
	if rowTree.Len() != width {
		return fmt.Errorf("comm: row tree has %d vertices, grid width %d", rowTree.Len(), width)
	}
	if colTree.Len() != height {
		return fmt.Errorf("comm: column tree has %d vertices, grid height %d", colTree.Len(), height)
	}
	for y := 0; y < height; y++ {
		if err := BuildTreeReduce(spec, mesh.Row(y, 0, width), rowTree, b, ColorPair{ColorTreeA, ColorTreeB}, op); err != nil {
			return fmt.Errorf("comm: row %d: %w", y, err)
		}
	}
	if height > 1 {
		if err := BuildTreeReduce(spec, mesh.Column(0, 0, height), colTree, b, ColorPair{ColorColA, ColorColB}, op); err != nil {
			return fmt.Errorf("comm: column phase: %w", err)
		}
	}
	return nil
}

// BuildReduceSnake compiles the Snake Reduce of §7.3: a fully pipelined
// chain over the boustrophedon path covering the whole grid, optimal for
// B >> P where contention dominates.
func BuildReduceSnake(spec *fabric.Spec, width, height, b int, op fabric.ReduceOp) error {
	path := mesh.Snake(height, width)
	return BuildTreeReduce(spec, path, Chain(len(path)), b, ColorPair{ColorTreeA, ColorTreeB}, op)
}
