package comm

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/mesh"
)

// The color budget. A 1D schedule runs on a Lane and takes the colors from
// the lane's Base up: a tree reduce Base and Base+1, and the end-rooted
// AllReduce floods behind it on Base+2; the ring takes Base to Base+2 (Base+3
// in its distance-preserving mapping); the middle root reduces its halves on
// Base to Base+3 and floods on Base+4, its fold chains the west half and
// the crossing on Base and Base+1 and the east half on Base+2 and Base+3 and
// floods on Base+4 too, and its AllGather gathers the halves on
// Base and Base+1 and floods on Base+4; the gather-flood takes Base alone. A
// 1D kind runs row 0 from Base 0, within the paper's budget of ≤3 colors in
// 1D (§8.2) but for the middle root's 5. The 2D X-Y collectives reduce the rows
// from 0 and column 0 from ColorColumn, and flood on ColorBcast2, the paper's
// ≤5 in 2D. The centre root takes 9 of the fabric's 24: the middle root's 5 in
// every row, and the middle column's halves from 5. The split AllReduce takes
// 13: the rows' ring reduce-scatter on 0-2, the column AllReduces from 3
// (3-7), the rows' AllGather from 8 (8-12). The measurement harness's trigger
// rides on TriggerColor, 23, on top.
const (
	// ColorBcast is the color of a lone 1D broadcast.
	ColorBcast mesh.Color = 2
	// ColorColumn is the base of an X-Y reduce's column phase.
	ColorColumn mesh.Color = 2
	// ColorBcast2 is the color of every 2D flood.
	ColorBcast2 mesh.Color = 4
	// TriggerColor carries the start trigger of the §8.3 measurement
	// methodology.
	TriggerColor mesh.Color = 23
)

// A Lane is where a 1D schedule runs: along Path, on the window
// acc[Off:Off+N] of every PE's accumulator, on the colors from Base up (the
// color budget above says how many each schedule takes). A 1D kind runs
// RowLane; the split AllReduce runs lanes on every row and every column, each
// column on its own chunk of the vector.
type Lane struct {
	Path   mesh.Path
	Off, N int
	Base   mesh.Color
}

// RowLane is row 0 of p PEs over the whole b-element vector, from color 0.
func RowLane(p, b int) Lane { return Lane{Path: mesh.Row(0, 0, p), N: b} }

// validate checks the path and that the window holds at least min elements.
func (l Lane) validate(min int) error {
	if l.N < min || l.Off < 0 {
		return fmt.Errorf("comm: window of %d elements at offset %d, want at least %d at an offset >= 0", l.N, l.Off, min)
	}
	return l.Path.Validate()
}

// chunks returns the balanced chunks of the lane's window over its PEs, at
// their offsets in the accumulator.
func (l Lane) chunks() (off, sz []int) {
	off, sz = Chunks(len(l.Path), l.N)
	for j := range off {
		off[j] += l.Off
	}
	return off, sz
}

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

// BuildAllReduce1D compiles the paper's Reduce-then-Broadcast AllReduce
// (§6.1) on a lane: a tree Reduce to path index 0 followed by a flooding
// broadcast of the result on Base+2.
func BuildAllReduce1D(spec *fabric.Spec, lane Lane, tree Tree, op fabric.ReduceOp) error {
	if err := BuildTreeReduce(spec, lane, tree, op); err != nil {
		return err
	}
	flood := lane
	flood.Base += 2
	return BuildFlood(spec, flood, 0)
}

// BuildReduceXY compiles the 2D X-Y Reduce of §7.2 on a width×height
// grid: rowTree reduces every row to column 0 (all rows share colors 0-1;
// rows are link-disjoint), then colTree reduces column 0 to (0,0) on
// the two colors from ColorColumn.
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
		if err := BuildTreeReduce(spec, Lane{Path: mesh.Row(y, 0, width), N: b}, rowTree, op); err != nil {
			return fmt.Errorf("comm: row %d: %w", y, err)
		}
	}
	if height > 1 {
		if err := BuildTreeReduce(spec, Lane{Path: mesh.Column(0, 0, height), N: b, Base: ColorColumn}, colTree, op); err != nil {
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
	return BuildTreeReduce(spec, Lane{Path: path, N: b}, Chain(len(path)), op)
}
