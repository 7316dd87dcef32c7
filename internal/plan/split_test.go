package plan

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mesh"
)

// The dense split domain: every square grid from 2×2 to 17×17, oblong grids
// both ways, single rows (H = 1) and a single column, and rows of 18 to 32
// PEs — where the reduce-scatter's finishes, and so the AllGather's starts,
// spread farthest, PE 0 alone paying the ring's wrap-around — each at vector
// lengths W divides and ones it does not, up to 2^16 wavelets.
var (
	splitDenseGrids = func() [][2]int {
		var g [][2]int
		for side := 2; side <= 17; side++ {
			g = append(g, [2]int{side, side})
		}
		return append(g, [][2]int{{2, 5}, {5, 2}, {3, 8}, {8, 3}, {4, 16}, {16, 4}, {7, 12}, {12, 7},
			{5, 1}, {16, 1}, {17, 1}, {1, 6}, {18, 18}, {24, 24}, {32, 32}, {32, 4}}...)
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
// where it does not, the rows' and columns' chunks uneven. The rows'
// AllGather is whichever schedule prices the whole split lowest, the streamed
// middle root included wherever its queue gate admits it — priced from every
// PE's own ready cycle — and under default options some shapes of the walk
// must pick it, rows of 17 PEs or fewer and wider ones. Under the race
// detector it walks every fifth shape, and only the first must stream.
func TestSplitDense(t *testing.T) {
	stride := 1
	if raceEnabled {
		stride = 5
	}
	n := 0
	var streamed [2]atomic.Int32 // rows of up to 17 PEs, wider ones
	t.Cleanup(func() {
		if streamed[0].Load() == 0 || stride == 1 && streamed[1].Load() == 0 {
			t.Errorf("%d narrow and %d wide shapes all-gather their rows through the streamed middle root", streamed[0].Load(), streamed[1].Load())
		}
	})
	for _, g := range splitDenseGrids {
		for _, b := range splitDenseB(g[0]) {
			if g[0]*g[1]*b > splitDenseMaxVolume {
				continue
			}
			if n++; n%stride == 0 {
				t.Run(fmt.Sprintf("%dx%d/b=%d", g[0], g[1], b), func(t *testing.T) {
					t.Parallel()
					if splitDense(t, g[0], g[1], b) {
						streamed[min(g[0]/18, 1)].Add(1)
					}
				})
			}
		}
	}
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
		ops := spec.PE(mesh.Coord{X: w / 2, Y: y}).Ops
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
			ops := spec.PE(mesh.Coord{X: x, Y: y}).Ops
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

// splitDense runs one shape of TestSplitDense and reports whether, under
// default options, its rows all-gather through the streamed middle root.
func splitDense(t *testing.T, w, h, b int) (streamed bool) {
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
			if i == 0 {
				streamed = rowsStream(pl.Spec, w, h)
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
	return streamed
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
