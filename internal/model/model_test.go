package model

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEq1Synthesis(t *testing.T) {
	pr := Default()
	// Contention-dominated.
	if got := pr.Time(Cost{C: 100, E: 10, N: 10, L: 5, D: 2}); got != 100+5*2 {
		t.Errorf("got %v", got)
	}
	// Energy+distance-dominated.
	if got := pr.Time(Cost{C: 1, E: 100, N: 10, L: 5, D: 1}); got != 15+5 {
		t.Errorf("got %v", got)
	}
}

func TestLemmaValuesAtPaperPoints(t *testing.T) {
	pr := Default()
	// Chain at 512 PEs, scalar: 1 + 6*511 = 3067.
	if got := pr.ChainReduce(512, 1); got != 3067 {
		t.Errorf("chain(512,1)=%v", got)
	}
	// Star refined at 512 PEs, scalar: 511 + 5 = 516.
	if got := pr.StarReduce(512, 1); got != 516 {
		t.Errorf("star(512,1)=%v", got)
	}
	// Broadcast Lemma 4.1: B + P + 2T_R.
	if got := pr.Broadcast1D(512, 256); got != 256+512+4 {
		t.Errorf("bcast(512,256)=%v", got)
	}
	// 2D broadcast Lemma 7.1.
	if got := pr.Broadcast2D(512, 512, 256); got != 256+512+512-2+4+1 {
		t.Errorf("bcast2d=%v", got)
	}
}

func TestTreeReduceMatchesLemma53(t *testing.T) {
	pr := Default()
	// At P=512, B=8192 wavelets (32 KB): contention term dominates:
	// 8192*9 + 5*9 = 73773. Combined with the lower bound this yields the
	// 6.6 ratio in Figure 1c's top-right corner.
	got := pr.TreeReduce(512, 8192)
	if math.Abs(got-73773) > 1 {
		t.Errorf("tree(512,8192)=%v, want 73773", got)
	}
}

func TestMonotonicityInB(t *testing.T) {
	pr := Default()
	f := func(pRaw uint16, b1Raw, b2Raw uint16) bool {
		p := int(pRaw%510) + 2
		b1 := int(b1Raw%8192) + 1
		b2 := b1 + int(b2Raw%8192) + 1
		for _, name := range ReduceNames {
			if pr.Reduce1D(name, p, b1) > pr.Reduce1D(name, p, b2) {
				return false
			}
		}
		return pr.RingAllReduce(p, b1) <= pr.RingAllReduce(p, b2) &&
			pr.Broadcast1D(p, b1) <= pr.Broadcast1D(p, b2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTwoPhaseSqrtIsNearOptimalGroupSize(t *testing.T) {
	// Lemma 5.4 motivates S = √P as the depth/energy balance point in
	// two-phase's target regime of intermediate vectors (P ≈ B, §5.4).
	// Degenerate group sizes (S close to P collapse to a single chain,
	// optimal only for huge B) are excluded: for those shapes the paper
	// switches algorithm instead of re-tuning S.
	pr := Default()
	for _, p := range []int{64, 256, 512} {
		b := p // the P ≈ B regime
		def := pr.TwoPhaseReduce(p, b)
		best := math.Inf(1)
		for s := 2; s*s <= 4*p; s++ {
			if v := pr.TwoPhaseReduceS(p, b, s); v < best {
				best = v
			}
		}
		if def > 1.2*best {
			t.Errorf("p=%d b=%d: sqrt choice %v vs best in-regime %v", p, b, def, best)
		}
	}
}

func TestRingCrossover(t *testing.T) {
	pr := Default()
	// §8.6 / Figure 12c: at 4 PEs and 1 KB the ring is slightly ahead of
	// chain+bcast; at ≥8 PEs reduce-then-broadcast wins clearly.
	if pr.RingAllReduce(4, 256) >= pr.AllReduce1D("chain", 4, 256) {
		t.Error("ring should edge out chain+bcast at 4 PEs / 1 KB")
	}
	if pr.RingAllReduce(64, 256) <= pr.AllReduce1D("chain", 64, 256) {
		t.Error("chain+bcast should beat ring at 64 PEs / 1 KB")
	}
	// Butterfly drowns the fabric in energy for non-trivial vectors: its
	// P·B/2 energy term puts it far above every implemented pattern, the
	// behaviour Figure 11c plots (at B=1 the full-vector exchanges are
	// single wavelets and the comparison is moot).
	for _, b := range []int{64, 256, 4096} {
		if pr.ButterflyAllReduce(512, b) < 2*pr.AllReduce1D("tree", 512, b) {
			t.Errorf("butterfly unexpectedly competitive at b=%d", b)
		}
	}
}

// TestXYComposition: Snake is a chain over the whole grid, and Lemma 7.2 is
// a positive floor. The X-Y forms are core.PredictReduce2D's.
func TestXYComposition(t *testing.T) {
	pr := Default()
	if pr.SnakeReduce(16, 32, 64) != pr.ChainReduce(512, 64) {
		t.Error("snake should equal chain over all PEs")
	}
	if pr.LowerBound2D(512, 512, 256) <= 0 {
		t.Error("2D lower bound must be positive")
	}
}

func TestEdgeCases(t *testing.T) {
	pr := Default()
	for _, name := range ReduceNames {
		if pr.Reduce1D(name, 1, 128) != 0 {
			t.Errorf("%s on one PE should be free", name)
		}
	}
	if pr.Broadcast1D(1, 128) != 0 || pr.Broadcast2D(1, 1, 4) != 0 {
		t.Error("broadcast to self should be free")
	}
	if !math.IsInf(pr.Reduce1D("nonsense", 4, 4), 1) {
		t.Error("unknown pattern should be +inf")
	}
}
