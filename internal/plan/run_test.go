package plan

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
)

// runOnes compiles req and executes it once on all-ones inputs of its layout.
func runOnes(t *testing.T, req Request) *core.Report {
	t.Helper()
	pl, err := Compile(req)
	if err != nil {
		t.Fatalf("%+v: %v", req, err)
	}
	rep, err := pl.Execute(req.Inputs(func(n int) []float32 { return slices.Repeat([]float32{1}, n) }))
	if err != nil {
		t.Fatalf("%+v: %v", req, err)
	}
	return rep
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
			for _, pat := range []core.Pattern{core.Star, core.Chain, core.Tree, core.AutoGen} {
				rep := runOnes(t, Request{Kind: Reduce1D, Alg: pat, P: p, B: b})
				if float64(rep.Cycles) != rep.Predicted {
					t.Errorf("%s p=%d b=%d: %d cycles, predicted %v", pat, p, b, rep.Cycles, rep.Predicted)
				}
			}
		}
	}
	for _, tc := range []struct {
		pat  core.Pattern
		p, b int
	}{{core.TwoPhase, 64, 256}, {core.TwoPhase, 6, 16}, {core.Tree, 17, 8}, {core.Tree, 129, 8}} {
		rep := runOnes(t, Request{Kind: Reduce1D, Alg: tc.pat, P: tc.p, B: tc.b})
		if c := float64(rep.Cycles); rep.Predicted >= c || rep.Predicted < 0.8*c {
			t.Errorf("%s p=%d b=%d: %d cycles, predicted %v: want a lower estimate within 20%%", tc.pat, tc.p, tc.b, rep.Cycles, rep.Predicted)
		}
	}
}

// TestMidRootRunsAtItsEstimate: a middle-root AllReduce spelled Auto runs the
// pattern core.BestAllReduceMidRoot picks and reports the estimate it was
// picked by, which is within 5 % of the run — and exact where the halves
// share no link, as the pair the Auto-Gen search returns for the middle root
// does: 38 cycles at 16 PEs and one wavelet (binomial halves ran 46), 535 at
// 512 (the §5.5 tree on each half ran 562).
func TestMidRootRunsAtItsEstimate(t *testing.T) {
	pr := core.Params(fabric.Options{})
	rep := runOnes(t, Request{Kind: AllReduceMidRoot, Alg: core.Auto, P: 64, B: 16})
	if _, want := core.BestAllReduceMidRoot(64, 16, pr); rep.Predicted != want {
		t.Errorf("run predicted %v, Auto's estimate %v", rep.Predicted, want)
	}
	if e := math.Abs(float64(rep.Cycles)-rep.Predicted) / float64(rep.Cycles); e > 0.05 {
		t.Errorf("middle root at 64 PEs: %d cycles, predicted %v", rep.Cycles, rep.Predicted)
	}
	for _, tc := range []struct {
		p      int
		cycles int64
	}{{16, 38}, {512, 535}} {
		rep := runOnes(t, Request{Kind: AllReduceMidRoot, Alg: core.Auto, P: tc.p, B: 1})
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
	pr := core.Params(fabric.Options{})
	for _, tc := range []struct {
		p, b     int
		ringWins bool
	}{{16, 256, false}, {16, 1024, true}, {16, 4096, true}, {64, 1024, false}, {64, 2048, false}} {
		ring := runOnes(t, Request{Kind: AllReduce1D, Alg: core.Ring, P: tc.p, B: tc.b})
		// The end-rooted tree the model ranks first: the broadcast behind the
		// reduce costs every tree the same.
		tree, _ := core.BestReduce1D(tc.p, tc.b, pr)
		rooted := runOnes(t, Request{Kind: AllReduce1D, Alg: tree, P: tc.p, B: tc.b})
		if got := ring.Cycles < rooted.Cycles; got != tc.ringWins {
			t.Errorf("p=%d b=%d: ring %d cycles, %s+broadcast %d: ring wins = %v, want %v", tc.p, tc.b, ring.Cycles, tree, rooted.Cycles, got, tc.ringWins)
		}
		if best, midRoot, _ := core.BestAllReduce1D(tc.p, tc.b, pr); (best == core.Ring) != tc.ringWins || midRoot && tc.ringWins {
			t.Errorf("p=%d b=%d: Auto picks %s (middle root: %v), ring wins = %v", tc.p, tc.b, best, midRoot, tc.ringWins)
		}
		if float64(ring.Cycles) != ring.Predicted {
			t.Errorf("p=%d b=%d: ring ran %d cycles, Lemma 6.1 with its controls says %v", tc.p, tc.b, ring.Cycles, ring.Predicted)
		}
	}
}

// TestReportStats: a run's report carries the fabric's cost metrics.
func TestReportStats(t *testing.T) {
	rep := runOnes(t, Request{Kind: Reduce1D, Alg: core.Star, P: 16, B: 4})
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

// TestSinglePECollectives: on one PE a reduce and a broadcast move nothing
// and leave the input where it was.
func TestSinglePECollectives(t *testing.T) {
	for _, tc := range []struct {
		req   Request
		input []float32
	}{
		{Request{Kind: Reduce1D, Alg: core.Auto, P: 1, B: 2}, []float32{4, 5}},
		{Request{Kind: Broadcast1D, P: 1, B: 1}, []float32{7}},
	} {
		pl, err := Compile(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := pl.Execute([][]float32{tc.input})
		if err != nil {
			t.Fatal(err)
		}
		if !sameVec(rep.Root, tc.input) || rep.Cycles != 0 {
			t.Errorf("1-PE %s: %v after %d cycles, want %v after 0", tc.req.Kind, rep.Root, rep.Cycles, tc.input)
		}
	}
}
