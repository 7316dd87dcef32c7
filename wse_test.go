package wse

import (
	"context"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func vectorsFor(p, b int, seed int64) ([][]float32, []float32) {
	vecs := make([][]float32, p)
	sum := make([]float32, b)
	s := uint64(seed)*0x9e3779b9 + 1
	for i := range vecs {
		v := make([]float32, b)
		for j := range v {
			s = s*6364136223846793005 + 1442695040888963407
			v[j] = float32(int64(s>>40)%997) / 16
			sum[j] += v[j]
		}
		vecs[i] = v
	}
	return vecs, sum
}

func requireClose(t *testing.T, got, want []float32, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", ctx, len(got), len(want))
	}
	for i := range got {
		if d := math.Abs(float64(got[i] - want[i])); d > 1e-2*(1+math.Abs(float64(want[i]))) {
			t.Fatalf("%s: element %d: got %v want %v", ctx, i, got[i], want[i])
		}
	}
}

func TestReduceAllAlgorithms(t *testing.T) {
	for _, alg := range []Algorithm{Star, Chain, Tree, TwoPhase, AutoGen, Auto} {
		for _, p := range []int{1, 2, 9, 32} {
			for _, b := range []int{1, 5, 128} {
				vecs, want := vectorsFor(p, b, int64(p*b))
				rep, err := Run(context.Background(), Shape{Kind: KindReduce, Alg: alg, P: p, B: b, Op: Sum}, vecs)
				if err != nil {
					t.Fatalf("%s p=%d b=%d: %v", alg, p, b, err)
				}
				requireClose(t, rep.Root, want, fmt.Sprintf("%s p=%d b=%d", alg, p, b))
				if p > 1 && rep.Predicted <= 0 {
					t.Errorf("%s p=%d b=%d: prediction %v", alg, p, b, rep.Predicted)
				}
			}
		}
	}
}

func TestAllReduceLeavesResultEverywhere(t *testing.T) {
	vecs, want := vectorsFor(17, 33, 5)
	rep, err := Run(context.Background(), Shape{Kind: KindAllReduce, Alg: Auto, P: 17, B: 33, Op: Sum}, vecs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.All) != 17 {
		t.Fatalf("%d PEs in result", len(rep.All))
	}
	for c, v := range rep.All {
		requireClose(t, v, want, c.String())
	}
}

func TestMaxAndMinOps(t *testing.T) {
	vecs := [][]float32{{3, -8, 2}, {1, 5, 2}, {-4, 0, 9}}
	sh := Shape{Kind: KindReduce, Alg: Tree, P: 3, B: 3, Op: Max}
	repMax, err := Run(context.Background(), sh, vecs)
	if err != nil {
		t.Fatal(err)
	}
	requireClose(t, repMax.Root, []float32{3, 5, 9}, "max")
	sh.Op = Min
	repMin, err := Run(context.Background(), sh, vecs)
	if err != nil {
		t.Fatal(err)
	}
	requireClose(t, repMin.Root, []float32{-4, -8, 2}, "min")
}

func TestReduce2DAllAlgorithms(t *testing.T) {
	for _, alg := range []Algorithm2D{XYStar, XYChain, XYTree, XYTwoPhase, XYAutoGen, Snake, Auto2D} {
		w, h, b := 5, 4, 16
		vecs, want := vectorsFor(w*h, b, 99)
		rep, err := Run(context.Background(), Shape{Kind: KindReduce2D, Alg2D: alg, Width: w, Height: h, B: b, Op: Sum}, vecs)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		requireClose(t, rep.Root, want, string(alg))
	}
}

func TestAllReduce2D(t *testing.T) {
	w, h, b := 8, 8, 32
	vecs, want := vectorsFor(w*h, b, 123)
	rep, err := Run(context.Background(), Shape{Kind: KindAllReduce2D, Alg2D: Auto2D, Width: w, Height: h, B: b, Op: Sum}, vecs)
	if err != nil {
		t.Fatal(err)
	}
	for c, v := range rep.All {
		requireClose(t, v, want, c.String())
	}
}

func TestBroadcasts(t *testing.T) {
	data := []float32{1, 2, 3, 4, 5}
	rep, err := Run(context.Background(), Shape{Kind: KindBroadcast, P: 12, B: len(data)}, [][]float32{data})
	if err != nil {
		t.Fatal(err)
	}
	for c, v := range rep.All {
		requireClose(t, v, data, c.String())
	}
	rep2, err := Run(context.Background(), Shape{Kind: KindBroadcast2D, Width: 6, Height: 3, B: len(data)}, [][]float32{data})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.All) != 18 {
		t.Fatalf("%d PEs", len(rep2.All))
	}
	for c, v := range rep2.All {
		requireClose(t, v, data, c.String())
	}
}

// TestReducePropertySum is a property-based test: for random shapes and
// payloads, every algorithm agrees with the reference elementwise sum.
func TestReducePropertySum(t *testing.T) {
	f := func(pRaw, bRaw uint8, seed int64) bool {
		p := int(pRaw%24) + 1
		b := int(bRaw%48) + 1
		vecs, want := vectorsFor(p, b, seed)
		for _, alg := range []Algorithm{Star, Chain, Tree, TwoPhase, AutoGen} {
			rep, err := Run(context.Background(), Shape{Kind: KindReduce, Alg: alg, P: p, B: b, Op: Sum}, vecs)
			if err != nil {
				t.Logf("%s p=%d b=%d: %v", alg, p, b, err)
				return false
			}
			for i := range want {
				if math.Abs(float64(rep.Root[i]-want[i])) > 1e-2*(1+math.Abs(float64(want[i]))) {
					t.Logf("%s p=%d b=%d elem %d: %v vs %v", alg, p, b, i, rep.Root[i], want[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPredictionConsistency: Auto never predicts worse than any concrete
// algorithm, and the lower bound never exceeds any prediction.
func TestPredictionConsistency(t *testing.T) {
	f := func(pRaw, bRaw uint16) bool {
		p := int(pRaw%511) + 2
		b := int(bRaw%4096) + 1
		sh := Shape{Kind: KindReduce, Alg: Auto, P: p, B: b}
		bestT, lb := Predict(sh), Bound(sh)
		for _, alg := range []Algorithm{Star, Chain, Tree, TwoPhase, AutoGen} {
			sh.Alg = alg
			pred := Predict(sh)
			if bestT > pred+1e-6 {
				t.Logf("best %v worse than %s %v (p=%d b=%d)", bestT, alg, pred, p, b)
				return false
			}
			if pred < lb-1e-6 { // Star included, now that its control wavelets are priced
				t.Logf("%s prediction %v below bound %v (p=%d b=%d)", alg, pred, lb, p, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAutoGenTreeShape(t *testing.T) {
	tree := AutoGenTree(64, 1<<20, Options{})
	// Huge vectors force the chain.
	for v := 1; v < tree.Len(); v++ {
		if tree.Parent[v] != v-1 {
			t.Fatalf("expected chain, got parent[%d]=%d", v, tree.Parent[v])
		}
	}
	if err := AutoGenTree(100, 64, Options{}).Validate(); err != nil {
		t.Fatal(err)
	}
}
