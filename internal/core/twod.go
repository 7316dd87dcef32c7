package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/fabric"
	"repro/internal/mesh"
	"repro/internal/model"
)

// Pattern2D names a 2D Reduce/AllReduce mapping (§7).
type Pattern2D string

// The 2D patterns: X-Y compositions of each 1D pattern (rows first, then
// column 0) plus the Snake chain over the whole grid. XYChain is the
// vendor baseline of Figures 10 and 13.
const (
	XYStar     Pattern2D = "xy-star"
	XYChain    Pattern2D = "xy-chain"
	XYTree     Pattern2D = "xy-tree"
	XYTwoPhase Pattern2D = "xy-twophase"
	XYAutoGen  Pattern2D = "xy-autogen"
	Snake      Pattern2D = "snake"
	Auto2D     Pattern2D = "auto"
)

// Patterns2D lists the concrete (runnable) 2D patterns, in the paper's
// legend order.
var Patterns2D = []Pattern2D{XYStar, XYChain, XYTree, XYTwoPhase, XYAutoGen, Snake}

// Base1D returns the 1D pattern underlying an X-Y composition, or false
// for Snake and Auto2D.
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
// chain over all PEs (§7.3).
func PredictReduce2D(pattern Pattern2D, width, height, b int, pr model.Params) float64 {
	if pattern == Snake {
		return pr.SnakeReduce(height, width, b)
	}
	base, ok := pattern.base1D()
	if !ok {
		return 0
	}
	return pr.Then(PredictReduce1D(base, width, b, pr), PredictReduce1D(base, height, b, pr))
}

// PredictAllReduce2D adds the 2D flooding broadcast (§7.4).
func PredictAllReduce2D(pattern Pattern2D, width, height, b int, pr model.Params) float64 {
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

// BuildReduce2DInto compiles a 2D Reduce into spec without initial data.
func BuildReduce2DInto(spec *fabric.Spec, pattern Pattern2D, width, height, b int, pr model.Params, op fabric.ReduceOp) error {
	return buildReduce2D(spec, pattern, width, height, b, pr, op)
}

// BuildAllReduce2DInto compiles a 2D Reduce plus 2D broadcast into spec.
func BuildAllReduce2DInto(spec *fabric.Spec, pattern Pattern2D, width, height, b int, pr model.Params, op fabric.ReduceOp) error {
	if err := buildReduce2D(spec, pattern, width, height, b, pr, op); err != nil {
		return err
	}
	return comm.BuildBroadcast2D(spec, width, height, b, comm.ColorBcast2)
}

// BuildBroadcast2DInto compiles a 2D flooding broadcast into spec,
// materialising every PE of the region; the caller sets Init on (0,0).
func BuildBroadcast2DInto(spec *fabric.Spec, width, height, b int) error {
	if b < 1 {
		return fmt.Errorf("core: empty vector")
	}
	if err := comm.BuildBroadcast2D(spec, width, height, b, comm.ColorBcast2); err != nil {
		return err
	}
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			spec.PE(mesh.Coord{X: x, Y: y})
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
