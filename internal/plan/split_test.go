package plan

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mesh"
)

// The dense split domain: every square grid from 2×2 to 17×17, oblong grids
// both ways, single rows (H = 1) and a single column, each at vector lengths
// W divides and ones it does not, up to 2^16 wavelets.
var (
	splitDenseGrids = func() [][2]int {
		var g [][2]int
		for side := 2; side <= 17; side++ {
			g = append(g, [2]int{side, side})
		}
		return append(g, [][2]int{{2, 5}, {5, 2}, {3, 8}, {8, 3}, {4, 16}, {16, 4}, {7, 12}, {12, 7},
			{5, 1}, {16, 1}, {17, 1}, {1, 6}}...)
	}()
	// splitDenseB gives B as m·W + extra for each (m, extra): balanced chunks,
	// one longer chunk, and all but one longer.
	splitDenseB = func(w int) []int {
		var bs []int
		for _, m := range []int{1, 2, 5, 16} {
			bs = append(bs, m*w)
			if w > 1 {
				bs = append(bs, m*w+1, m*w+w-1)
			}
		}
		return bs
	}
)

const splitDenseMaxVolume = 1 << 16

// splitVariants are the engine configurations of the dense split test: T_R 1
// to 3, queue depths 2, 4 (the default) and 16, and the sharded engine. The
// model prices the first four and the sharded engine, which runs what the
// serial one does.
func splitVariants() []fabric.Options {
	return []fabric.Options{{}, {TR: 1}, {TR: 3}, {Shards: 3}, {QueueCap: 2}, {QueueCap: 16}}
}

// TestSplitDense runs the split AllReduce over the dense domain under each
// engine configuration, with Sum over small integers and Max over random
// values — two reductions a host loop computes bit for bit whatever the
// order of combination. Every PE must end with the host loop's vector bit
// for bit, no run may beat the bound, and under the priced configurations
// the run takes the cycles Predict says: to the cycle where W divides B and
// where it does not, the rows' and columns' chunks uneven. Under the race
// detector it walks every fifth shape.
func TestSplitDense(t *testing.T) {
	stride := 1
	if raceEnabled {
		stride = 5
	}
	n := 0
	for _, g := range splitDenseGrids {
		for _, b := range splitDenseB(g[0]) {
			if g[0]*g[1]*b > splitDenseMaxVolume {
				continue
			}
			if n++; n%stride == 0 {
				t.Run(fmt.Sprintf("%dx%d/b=%d", g[0], g[1], b), func(t *testing.T) {
					t.Parallel()
					splitDense(t, g[0], g[1], b)
				})
			}
		}
	}
}

func splitDense(t *testing.T, w, h, b int) {
	rng := rand.New(rand.NewSource(int64(w*1000 + h*100 + b)))
	for _, op := range []fabric.ReduceOp{fabric.OpSum, fabric.OpMax} {
		inputs := make([][]float32, w*h)
		for i := range inputs {
			inputs[i] = make([]float32, b)
			for j := range inputs[i] {
				if op == fabric.OpSum {
					inputs[i][j] = float32(rng.Intn(19) - 9)
				} else {
					inputs[i][j] = float32(rng.NormFloat64()) * 3.7
				}
			}
		}
		want := make([]float32, b)
		copy(want, inputs[0])
		for _, v := range inputs[1:] {
			for j, x := range v {
				want[j] = op.Apply(want[j], x)
			}
		}
		for i, opt := range splitVariants() {
			req := Request{Kind: AllReduce2D, Alg2D: core.Split, Width: w, Height: h, B: b, Op: op, Opt: opt}
			label := fmt.Sprintf("%v under %+v", op, opt)
			pl, err := Compile(req)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			rep, err := pl.Execute(inputs)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					sameBitsVec(t, want, rep.All[mesh.Coord{X: x, Y: y}], fmt.Sprintf("%s: PE (%d,%d)", label, x, y))
				}
			}
			if bound := req.Bound(); float64(rep.Cycles) < bound {
				t.Errorf("%s: %d cycles, under the bound %v", label, rep.Cycles, bound)
			}
			if priced := i < 4; priced && float64(rep.Cycles)-rep.Predicted != columnErr(t, h, (b+w-1)/w, opt) {
				t.Errorf("%s: %d cycles, predicted %v, the column's own error %v", label, rep.Cycles, rep.Predicted, columnErr(t, h, (b+w-1)/w, opt))
			}
			if math.Float64bits(rep.Predicted) != math.Float64bits(req.Predict()) {
				t.Errorf("%s: Report.Predicted %v, Predict %v", label, rep.Predicted, req.Predict())
			}
		}
	}
}

// columnErr is how many cycles the 1D AllReduce Auto runs on a column of h
// PEs over n elements takes beyond its estimate.
func columnErr(t *testing.T, h, n int, opt fabric.Options) float64 {
	if h < 2 {
		return 0
	}
	req := Request{Kind: AllReduce1D, Alg: core.Auto, P: h, B: n, Opt: opt}
	pl, err := Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pl.Execute(req.Inputs(ramp))
	if err != nil {
		t.Fatal(err)
	}
	return float64(rep.Cycles) - rep.Predicted
}
