package core

import (
	"math"
	"slices"
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

func TestRunInputValidation(t *testing.T) {
	if _, err := RunReduce1D(Chain, nil, fabric.OpSum, fabric.Options{}); err == nil {
		t.Error("nil vectors accepted")
	}
	if _, err := RunReduce1D(Chain, [][]float32{{1, 2}, {3}}, fabric.OpSum, fabric.Options{}); err == nil {
		t.Error("ragged vectors accepted")
	}
	if _, err := RunReduce1D(Chain, [][]float32{{}}, fabric.OpSum, fabric.Options{}); err == nil {
		t.Error("empty vectors accepted")
	}
	if _, err := RunReduce2D(XYChain, 2, 2, [][]float32{{1}}, fabric.OpSum, fabric.Options{}); err == nil {
		t.Error("wrong grid vector count accepted")
	}
	if _, err := RunScatter([]float32{1, 2}, 1, fabric.Options{}); err == nil {
		t.Error("1-PE scatter accepted")
	}
	if _, err := RunGather([][]float32{{1}, {2, 3}}, fabric.Options{}); err == nil {
		t.Error("misshapen gather chunks accepted")
	}
}

func TestSinglePECollectives(t *testing.T) {
	rep, err := RunReduce1D(Auto, [][]float32{{4, 5}}, fabric.OpSum, fabric.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Root[0] != 4 || rep.Root[1] != 5 {
		t.Errorf("1-PE reduce result %v", rep.Root)
	}
	if rep.Cycles != 0 {
		t.Errorf("1-PE reduce took %d cycles", rep.Cycles)
	}
	rb, err := RunBroadcast1D([]float32{7}, 1, fabric.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rb.Root[0] != 7 {
		t.Errorf("1-PE broadcast result %v", rb.Root)
	}
}

func TestReportStats(t *testing.T) {
	vecs := make([][]float32, 16)
	for i := range vecs {
		vecs[i] = []float32{1, 1, 1, 1}
	}
	rep, err := RunReduce1D(Star, vecs, fabric.OpSum, fabric.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Star energy: (b+1 wavelets) × Σ distance i = 5 × 120.
	if rep.Stats.Hops != 5*120 {
		t.Errorf("energy %d, want %d", rep.Stats.Hops, 5*120)
	}
	if rep.Stats.MaxReceived != 4*15 {
		t.Errorf("contention %d, want %d", rep.Stats.MaxReceived, 60)
	}
	if rep.Predicted <= 0 || rep.Cycles <= 0 {
		t.Error("missing prediction or cycles")
	}
}

func ones(p, b int) [][]float32 {
	out := make([][]float32, p)
	for i := range out {
		out[i] = slices.Repeat([]float32{1}, b)
	}
	return out
}

// TestPredictIsTheFabric: a tree Reduce is predicted by the critical path of
// its tree (model.CriticalPath), and where no two transfers share a link —
// stars, chains, binomial trees on a power of two, what the Auto-Gen search
// returns — that is the simulator's cycle count to the cycle. Two-Phase and
// binomial trees on other PE counts have sibling transfers that run ahead
// into each other's links; the path is then a lower estimate (within 8 % for
// Two-Phase and 17 % for the binomial tree over P = 2…300, B = 1…256).
func TestPredictIsTheFabric(t *testing.T) {
	for _, p := range []int{2, 4, 16, 64, 128} {
		for _, b := range []int{1, 4, 16, 64} {
			for _, pat := range []Pattern{Star, Chain, Tree, AutoGen} {
				rep, err := RunReduce1D(pat, ones(p, b), fabric.OpSum, fabric.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if float64(rep.Cycles) != rep.Predicted {
					t.Errorf("%s p=%d b=%d: %d cycles, predicted %v", pat, p, b, rep.Cycles, rep.Predicted)
				}
			}
		}
	}
	for _, tc := range []struct {
		pat  Pattern
		p, b int
	}{{TwoPhase, 64, 256}, {TwoPhase, 6, 16}, {Tree, 17, 8}, {Tree, 129, 8}} {
		rep, err := RunReduce1D(tc.pat, ones(tc.p, tc.b), fabric.OpSum, fabric.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if c := float64(rep.Cycles); rep.Predicted >= c || rep.Predicted < 0.8*c {
			t.Errorf("%s p=%d b=%d: %d cycles, predicted %v: want a lower estimate within 20%%", tc.pat, tc.p, tc.b, rep.Cycles, rep.Predicted)
		}
	}
}

// TestMidRootAutoMinimisesItsOwnLemma: the middle root's Auto is the
// pattern with the lowest middle-root estimate — not the best lone Reduce of
// a half, which at one wavelet is a wide tree whose two halves queue at the
// shared root — every pattern the builder accepts has a finite estimate,
// and a run reports the estimate Auto was chosen by.
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
		if got := PredictAllReduceMidRoot(Auto, tc.p, tc.b, pr); got != bestT {
			t.Errorf("p=%d b=%d: Auto estimates %v, its choice %v", tc.p, tc.b, got, bestT)
		}
	}
	// 512 PEs, one wavelet: Star wins a lone 257-PE Reduce on paper when its
	// control wavelets go unpriced, and loses here by a factor of two.
	if best, _ := BestAllReduceMidRoot(512, 1, pr); best == Star {
		t.Error("Auto deploys Star on the 512-PE middle root")
	}
	rep, err := RunAllReduceMidRoot(Auto, ones(64, 16), fabric.OpSum, fabric.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, want := BestAllReduceMidRoot(64, 16, pr); rep.Predicted != want {
		t.Errorf("run predicted %v, Auto's estimate %v", rep.Predicted, want)
	}
	if e := math.Abs(float64(rep.Cycles)-rep.Predicted) / float64(rep.Cycles); e > 0.05 {
		t.Errorf("middle root at 64 PEs: %d cycles, predicted %v", rep.Cycles, rep.Predicted)
	}
	// Priced as one path the pick is exact where its halves share no link:
	// binomial halves at 16 PEs and one wavelet, 46 cycles (the half-plus-
	// width form said 48), and the generated halves at 512, 562.
	for _, tc := range []struct {
		p      int
		cycles int64
	}{{16, 46}, {512, 562}} {
		rep, err := RunAllReduceMidRoot(Auto, ones(tc.p, 1), fabric.OpSum, fabric.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cycles != tc.cycles || rep.Predicted != float64(tc.cycles) {
			t.Errorf("middle root at %d PEs, one wavelet: %d cycles, predicted %v, want %d for both", tc.p, rep.Cycles, rep.Predicted, tc.cycles)
		}
	}
}

// TestRingCrossover measures where the ring AllReduce wins, which is where
// Auto deploys it: it moves 2B(P-1)/P wavelets through every PE where
// Reduce-then-Broadcast moves 2B through the root, and pays 2(P-1) dependent
// rounds for it. At 16 PEs the rounds are repaid from 4 KB up (2129 against
// 2159 cycles, 7889 against 8303 at 16 KB) and not at 1 KB; at 64 PEs not
// anywhere a vector fits — the paper's §8.6 verdict, run.
func TestRingCrossover(t *testing.T) {
	pr := Params(fabric.Options{})
	for _, tc := range []struct {
		p, b     int
		ringWins bool
	}{{16, 256, false}, {16, 1024, true}, {16, 4096, true}, {64, 1024, false}, {64, 2048, false}} {
		vecs := ones(tc.p, tc.b)
		ring, err := RunAllReduce1D(Ring, vecs, fabric.OpSum, fabric.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tree, _ := best1D(func(pat Pattern) float64 { return PredictAllReduce1D(pat, tc.p, tc.b, pr) })
		rooted, err := RunAllReduce1D(tree, vecs, fabric.OpSum, fabric.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := ring.Cycles < rooted.Cycles; got != tc.ringWins {
			t.Errorf("p=%d b=%d: ring %d cycles, %s+broadcast %d: ring wins = %v, want %v", tc.p, tc.b, ring.Cycles, tree, rooted.Cycles, got, tc.ringWins)
		}
		if best, midRoot, _ := BestAllReduce1D(tc.p, tc.b, pr); (best == Ring) != tc.ringWins || midRoot && tc.ringWins {
			t.Errorf("p=%d b=%d: Auto picks %s (middle root: %v), ring wins = %v", tc.p, tc.b, best, midRoot, tc.ringWins)
		}
		if float64(ring.Cycles) != ring.Predicted {
			t.Errorf("p=%d b=%d: ring ran %d cycles, Lemma 6.1 with its controls says %v", tc.p, tc.b, ring.Cycles, ring.Predicted)
		}
	}
}
