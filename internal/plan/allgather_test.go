package plan

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mesh"
)

// The dense AllGather domain: every schedule over these P and B = P·m, up to
// 2^18 wavelets. The P are powers of two, one past them and odd counts, where
// the middle PE splits the row unevenly.
var (
	allGatherDenseP = []int{2, 3, 4, 5, 8, 9, 16, 17, 33, 64, 100, 256}
	allGatherDenseM = []int{1, 2, 3, 4, 8, 16, 64}
)

const allGatherDenseMaxVolume = 1 << 18

// allGatherSchedules lists the AllGather schedules that run at req: every one
// of core.AllGatherPatterns but the streamed middle root outside its gate,
// where the model prices it at +Inf and its program can deadlock.
func allGatherSchedules(req Request) []core.Pattern {
	pr := core.Params(req.Opt)
	return slices.DeleteFunc(slices.Clone(core.AllGatherPatterns), func(alg core.Pattern) bool {
		return alg == core.StarStream && math.IsInf(core.PredictAllGather(alg, req.P, req.B, pr), 1)
	})
}

// TestAllGatherDense runs every AllGather schedule that runs there
// (allGatherSchedules) over the dense domain under each of the nine
// tapeVariants engine configurations. Every PE must end with the whole vector bit for bit and no
// run may beat the bound; under the default options every schedule runs at its
// estimate to the cycle, and Auto is no slower than any of them. Under the race
// detector it walks every fifth shape.
func TestAllGatherDense(t *testing.T) {
	if tapeVariants()[0] != (fabric.Options{}) {
		t.Fatal("the first engine configuration is not the default")
	}
	stride := 1
	if raceEnabled {
		stride = 5
	}
	n := 0
	for _, p := range allGatherDenseP {
		for _, m := range allGatherDenseM {
			if b := p * m; p*b <= allGatherDenseMaxVolume {
				if n++; n%stride == 0 {
					t.Run(fmt.Sprintf("p=%d/b=%d", p, b), func(t *testing.T) {
						t.Parallel()
						allGatherDense(t, p, b)
					})
				}
			}
		}
	}
}

func allGatherDense(t *testing.T, p, b int) {
	req := Request{Kind: AllGather, P: p, B: b}
	inputs := randomInputs(req, int64(p*b))
	want := slices.Concat(inputs...)
	for i, opt := range tapeVariants() {
		req.Opt = opt
		bound := req.Bound()
		fastest := int64(math.MaxInt64)
		for _, alg := range allGatherSchedules(req) {
			label := fmt.Sprintf("%s under %+v", alg, opt)
			rep, err := runSchedule(req, alg, inputs)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for x := 0; x < p; x++ {
				sameBitsVec(t, want, rep.All[mesh.Coord{X: x}], fmt.Sprintf("%s: PE %d", label, x))
			}
			if float64(rep.Cycles) < bound {
				t.Errorf("%s: %d cycles, under the bound %v", label, rep.Cycles, bound)
			}
			if i == 0 && float64(rep.Cycles) != rep.Predicted {
				t.Errorf("%s: %d cycles, predicted %v", label, rep.Cycles, rep.Predicted)
			}
			fastest = min(fastest, rep.Cycles)
		}
		if i > 0 {
			continue
		}
		pl, err := Compile(req)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := pl.Execute(inputs)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cycles > fastest {
			t.Errorf("auto runs %s in %d cycles, a schedule takes %d", pl.Alg, rep.Cycles, fastest)
		}
	}
}
