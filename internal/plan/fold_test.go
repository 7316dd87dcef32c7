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

// The dense fold domain: rows of 1 to 9 PEs and both sides of every power of
// two up to 257, at vector lengths from 1 to 1024 wavelets, even and odd, up
// to 2^15 wavelets in all.
var (
	foldDenseP = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 128, 129, 257}
	foldDenseB = []int{1, 2, 5, 16, 33, 255, 256, 1024}
)

const foldDenseMaxVolume = 1 << 15

// foldVariants are the engine configurations of the dense fold test: T_R 1
// to 3, queue depths 2, 4 (the default) and 16 and the sharded engine, which
// the model prices, then clock skew, thermal no-ops and task activation,
// which perturb the fabric away from the model.
func foldVariants() (priced, perturbed []fabric.Options) {
	return []fabric.Options{{}, {TR: 1}, {TR: 3}, {Shards: 3}, {QueueCap: 2}, {QueueCap: 16}},
		[]fabric.Options{{ClockSkewMax: 50, Seed: 7}, {ThermalNoopRate: 0.02, Seed: 7}, {TaskActivation: 3}}
}

// TestFoldDense runs the middle root's fold over the dense domain under each
// engine configuration, with Sum over small integers and Max over random
// values — two reductions a host loop computes bit for bit whatever the order
// of combination. Every PE must end with the host loop's vector bit for bit,
// no run may beat the bound, and Report.Predicted is Predict. Under the
// priced configurations the fold takes no longer than the end-rooted chain
// AllReduce, and runs at its estimate wherever that chain does. Under the race
// detector it walks every fifth shape.
func TestFoldDense(t *testing.T) {
	stride := 1
	if raceEnabled {
		stride = 5
	}
	n := 0
	for _, p := range foldDenseP {
		for _, b := range foldDenseB {
			if p*b > foldDenseMaxVolume {
				continue
			}
			if n++; n%stride == 0 {
				t.Run(fmt.Sprintf("p=%d/b=%d", p, b), func(t *testing.T) {
					t.Parallel()
					foldDense(t, p, b)
				})
			}
		}
	}
}

func foldDense(t *testing.T, p, b int) {
	rng := rand.New(rand.NewSource(int64(p*10000 + b)))
	priced, perturbed := foldVariants()
	for _, op := range []fabric.ReduceOp{fabric.OpSum, fabric.OpMax} {
		inputs := make([][]float32, p)
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
		for i, opt := range append(priced, perturbed...) {
			req := Request{Kind: AllReduceMidRoot, Alg: core.Fold, P: p, B: b, Op: op, Opt: opt}
			label := fmt.Sprintf("%v under %+v", op, opt)
			rep := foldRun(t, req, inputs, label)
			for x := 0; x < p; x++ {
				sameBitsVec(t, want, rep.All[mesh.Coord{X: x}], fmt.Sprintf("%s: PE %d", label, x))
			}
			if bound := req.Bound(); float64(rep.Cycles) < bound {
				t.Errorf("%s: %d cycles, under the bound %v", label, rep.Cycles, bound)
			}
			if math.Float64bits(rep.Predicted) != math.Float64bits(req.Predict()) {
				t.Errorf("%s: Report.Predicted %v, Predict %v", label, rep.Predicted, req.Predict())
			}
			if i >= len(priced) || op != fabric.OpSum {
				continue // the operator moves no cycle
			}
			chain := req
			chain.Kind, chain.Alg = AllReduce1D, core.Chain
			end := foldRun(t, chain, inputs, label+", end-rooted chain")
			if rep.Cycles > end.Cycles {
				t.Errorf("%s: the fold takes %d cycles, the end-rooted chain %d", label, rep.Cycles, end.Cycles)
			}
			if float64(end.Cycles) == end.Predicted && float64(rep.Cycles) != rep.Predicted {
				t.Errorf("%s: %d cycles, predicted %v (the end-rooted chain runs at its %v)", label, rep.Cycles, rep.Predicted, end.Predicted)
			}
		}
	}
}

// foldRun compiles and runs req on inputs.
func foldRun(t *testing.T, req Request, inputs [][]float32, label string) *core.Report {
	t.Helper()
	pl, err := Compile(req)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	rep, err := pl.Execute(inputs)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return rep
}
