package core

import (
	"math"
	"testing"

	"repro/internal/fabric"
	"repro/internal/model"
)

func TestTreeForAllPatterns(t *testing.T) {
	for _, pat := range Patterns1D {
		for _, p := range []int{1, 2, 7, 64} {
			tr, err := TreeFor(pat, p, 32, Params(fabric.Options{}))
			if err != nil {
				t.Fatalf("%s p=%d: %v", pat, p, err)
			}
			if tr.Len() != p {
				t.Errorf("%s p=%d: %d vertices", pat, p, tr.Len())
			}
			if err := tr.Validate(); err != nil {
				t.Errorf("%s p=%d: %v", pat, p, err)
			}
		}
	}
	if _, err := TreeFor("nonsense", 8, 1, model.Default()); err == nil {
		t.Error("unknown pattern accepted")
	}
	if _, err := TreeFor(Ring, 8, 32, model.Default()); err == nil {
		t.Error("ring must not have a reduction tree")
	}
	if _, err := TreeFor(Auto, 8, 32, model.Default()); err == nil {
		t.Error("Auto reached a tree builder unresolved")
	}
}

func TestAutoSelectsModelWinner(t *testing.T) {
	for _, tc := range []struct {
		p, b int
	}{{512, 1}, {512, 4096}, {16, 16}, {64, 256}} {
		pr := Params(fabric.Options{})
		best, bestT := BestReduce1D(tc.p, tc.b, pr)
		for _, pat := range Patterns1D {
			if v := PredictReduce1D(pat, tc.p, tc.b, pr); v < bestT-1e-9 {
				t.Errorf("p=%d b=%d: %s (%v) beats selected %s (%v)", tc.p, tc.b, pat, v, best, bestT)
			}
		}
	}
}

func TestAutoSelectionRegimes(t *testing.T) {
	// §5.7: star-like at scalars, chain at huge vectors.
	pr := Params(fabric.Options{})
	if best, _ := BestReduce1D(512, 1<<20, pr); best != Chain && best != AutoGen {
		t.Errorf("huge-B winner %s", best)
	}
	// AutoGen never loses by construction; a concrete named pattern must
	// be within its own region prediction.
	if v := PredictReduce1D(AutoGen, 512, 256, pr); v > PredictReduce1D(TwoPhase, 512, 256, pr) {
		t.Error("autogen worse than twophase at its home shape")
	}
}

func TestParamsResolution(t *testing.T) {
	if Params(fabric.Options{}).TR != fabric.DefaultTR {
		t.Error("zero options should give the WSE-2 ramp latency")
	}
	if Params(fabric.Options{TR: -1}).TR != 0 {
		t.Error("negative TR should resolve to zero")
	}
	if Params(fabric.Options{TR: 5}).TR != 5 {
		t.Error("explicit TR ignored")
	}
}

func TestPredict2DConsistency(t *testing.T) {
	pr := model.Default()
	// X-Y composition equals two 1D reduces.
	got := PredictReduce2D(XYTwoPhase, 32, 16, 64, pr)
	want := PredictReduce1D(TwoPhase, 32, 64, pr) + PredictReduce1D(TwoPhase, 16, 64, pr)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("xy composition %v != %v", got, want)
	}
	// Snake equals chain over the whole grid.
	if PredictReduce2D(Snake, 8, 4, 64, pr) != pr.ChainReduce(32, 64) {
		t.Error("snake prediction mismatch")
	}
	// Best2D never worse than any candidate.
	_, bestT := BestReduce2D(64, 64, 256, pr)
	for _, pat := range Patterns2D {
		if v := PredictReduce2D(pat, 64, 64, 256, pr); v < bestT-1e-9 {
			t.Errorf("%s (%v) beats selected (%v)", pat, v, bestT)
		}
	}
}

// TestMidRootAutoMinimisesItsOwnLemma: the middle root's Auto is the
// pattern with the lowest middle-root estimate — not the best lone Reduce of
// a half, which at one wavelet is a wide tree whose two halves queue at the
// shared root — and every pattern the builder accepts has a finite estimate.
// That a run reports the estimate Auto was chosen by is plan's
// TestMidRootRunsAtItsEstimate.
func TestMidRootAutoMinimisesItsOwnLemma(t *testing.T) {
	pr := Params(fabric.Options{})
	for _, tc := range []struct{ p, b int }{{16, 1}, {64, 16}, {512, 1}, {257, 64}} {
		best, bestT := BestAllReduceMidRoot(tc.p, tc.b, pr)
		for _, pat := range Patterns1D {
			v := PredictAllReduceMidRoot(pat, tc.p, tc.b, pr)
			if math.IsInf(v, 0) || math.IsNaN(v) || v < bestT {
				t.Errorf("p=%d b=%d: %s estimates %v, Auto chose %s at %v", tc.p, tc.b, pat, v, best, bestT)
			}
		}
	}
	// 512 PEs, one wavelet: Star wins a lone 257-PE Reduce on paper when its
	// control wavelets go unpriced, and loses here by a factor of two.
	if best, _ := BestAllReduceMidRoot(512, 1, pr); best == Star {
		t.Error("Auto deploys Star on the 512-PE middle root")
	}
}
