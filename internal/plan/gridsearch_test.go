package plan

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
)

// gridSearchShapes are the grids of TestGridSearchRunsAtItsEstimate: every
// W, H from 1 to 12, then the lattice's grids.
func gridSearchShapes() [][2]int {
	var g [][2]int
	for w := 1; w <= 12; w++ {
		for h := 1; h <= 12; h++ {
			g = append(g, [2]int{w, h})
		}
	}
	return append(g, [][2]int{{16, 16}, {17, 17}, {32, 32}, {8, 32}, {32, 8}, {5, 7}}...)
}

var gridSearchB = []int{1, 2, 4, 16, 64, 256}

// gridSearchRequests are the grid's searched schedules at one shape: the
// streamed X-Y composition as a Reduce and inside the AllReduce, the centre
// root, and Auto-Gen's tree over the Snake — but never over 1024 PEs, where
// no vector length lets Auto pick it (TestSnakeFloorPrunes).
func gridSearchRequests(w, h, b int, op fabric.ReduceOp) []Request {
	reqs := []Request{
		{Kind: Reduce2D, Alg2D: core.XYAutoGen, Width: w, Height: h, B: b, Op: op},
		{Kind: AllReduce2D, Alg2D: core.XYAutoGen, Width: w, Height: h, B: b, Op: op},
		{Kind: AllReduce2D, Alg2D: core.Centre, Width: w, Height: h, B: b, Op: op},
	}
	if w*h < 1024 {
		reqs = append(reqs, Request{Kind: Reduce2D, Alg2D: core.SnakeAutoGen, Width: w, Height: h, B: b, Op: op})
	}
	return reqs
}

// TestGridSearchRunsAtItsEstimate: the grid's searched schedules — xy-autogen
// streaming its column from its rows, the centre root streaming likewise, and
// snake-autogen — run at the cycle Predict prices them at, on every grid of
// gridSearchShapes and every vector length of gridSearchB, and leave what a
// host loop combines at the root (on every PE for an AllReduce), bit for bit.
// Then a stride of the same shapes runs under shallow and deep queues, clock
// skew and thermal no-ops, where the model does not hold but every run must
// finish with the same bits. -short strides the exact walk too, and the race
// detector (which has no goroutines to watch here) strides it further.
func TestGridSearchRunsAtItsEstimate(t *testing.T) {
	stride := 1
	switch {
	case raceEnabled:
		stride = 31
	case testing.Short():
		stride = 7
	}
	perturbed := []fabric.Options{{QueueCap: 1}, {QueueCap: 2}, {QueueCap: 16}, {ClockSkewMax: 8, Seed: 3}, {ThermalNoopRate: 0.05, Seed: 5}}
	n := 0
	for _, g := range gridSearchShapes() {
		for _, b := range gridSearchB {
			if g[0]*g[1]*b > 1<<18 {
				continue
			}
			n++
			if n%stride != 0 {
				continue
			}
			w, h := g[0], g[1]
			op := fabric.ReduceOp(n % 3)
			inputs, want := gridInputs(w*h, b, op, int64(n))
			for _, req := range gridSearchRequests(w, h, b, op) {
				rep := runGrid(t, req, inputs, want)
				if float64(rep.Cycles) != rep.Predicted {
					t.Errorf("%v (%s): %d cycles, predicted %v", KeyOf(req), req.Alg2D, rep.Cycles, rep.Predicted)
				}
			}
			if n%(9*stride) != 0 {
				continue
			}
			for _, opt := range perturbed {
				for _, req := range gridSearchRequests(w, h, b, op) {
					req.Opt = opt
					runGrid(t, req, inputs, want)
				}
			}
		}
	}
}

// gridInputs returns n vectors of b small integers, which op combines
// exactly in any order, and their combination.
func gridInputs(n, b int, op fabric.ReduceOp, seed int64) (inputs [][]float32, want []float32) {
	rng := rand.New(rand.NewSource(seed))
	inputs = make([][]float32, n)
	for i := range inputs {
		inputs[i] = make([]float32, b)
		for j := range inputs[i] {
			inputs[i][j] = float32(rng.Intn(19) - 9)
		}
	}
	want = make([]float32, b)
	copy(want, inputs[0])
	for _, v := range inputs[1:] {
		for j, x := range v {
			want[j] = op.Apply(want[j], x)
		}
	}
	return inputs, want
}

// runGrid compiles and runs req on inputs and holds its root — every PE for
// an AllReduce — to want, bit for bit.
func runGrid(t *testing.T, req Request, inputs [][]float32, want []float32) *core.Report {
	t.Helper()
	label := fmt.Sprintf("%v (%s)", KeyOf(req), req.Alg2D)
	pl, err := Compile(req)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	rep, err := pl.Execute(inputs)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	pes := 1
	if req.Kind == AllReduce2D {
		pes = len(inputs)
	}
	for j := 0; j < pes; j++ {
		c := pl.inputCoord(j)
		sameBitsVec(t, want, rep.All[c], fmt.Sprintf("%s: PE %v", label, c))
	}
	return rep
}
