package autogen

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/fabric"
	"repro/internal/mesh"
	"repro/internal/model"
)

// ctl is the control wavelet comm.BuildTreeReduce trails every transfer
// with: the searches run for transfers of b+ctl wavelets.
var ctl = model.Params{TR: 2, Ctl: 1}

// eq1Halves is the pair the middle root ran before it had a search of its
// own: the §5.5 tree of each half.
func eq1Halves(p, b int) (west, east comm.Tree) {
	tb := For(p)
	return tb.Tree(p/2+1, b+ctl.Ctl, ctl.TR), tb.Tree(p-p/2, b+ctl.Ctl, ctl.TR)
}

// TestMidRootPairIsNoWorse: over P = 2…40 and larger rows, and B from one
// wavelet to 16 KB, the searched pair is two valid pre-order trees of the
// halves' sizes, the middle root's critical path over it is never longer than
// over the Eq. 1 pair, and it moves no more hops.
func TestMidRootPairIsNoWorse(t *testing.T) {
	ps := []int{64, 100, 129, 256, 257, 300, 512}
	for p := 2; p <= 40; p++ {
		ps = append(ps, p)
	}
	faster := 0
	for _, p := range ps {
		for _, b := range []int{1, 2, 4, 16, 64, 256, 1024, 4096} {
			west, east := MidRoot(p, b+ctl.Ctl, ctl.TR)
			if west.Len() != p/2+1 || east.Len() != p-p/2 {
				t.Fatalf("p=%d b=%d: halves of %d and %d PEs", p, b, west.Len(), east.Len())
			}
			if err := west.Validate(); err != nil {
				t.Fatalf("p=%d b=%d west: %v", p, b, err)
			}
			if err := east.Validate(); err != nil {
				t.Fatalf("p=%d b=%d east: %v", p, b, err)
			}
			ew, ee := eq1Halves(p, b)
			got, was := ctl.MidRootAllReduce(west.Parent, east.Parent, b), ctl.MidRootAllReduce(ew.Parent, ee.Parent, b)
			if got > was {
				t.Errorf("p=%d b=%d: searched pair %v cycles, Eq. 1 pair %v", p, b, got, was)
			}
			if h, eq1 := hops(west.Parent)+hops(east.Parent), hops(ew.Parent)+hops(ee.Parent); h > eq1 {
				t.Errorf("p=%d b=%d: searched pair moves %d hops a wavelet, Eq. 1 pair %d", p, b, h, eq1)
			}
			if got < was {
				faster++
			}
		}
	}
	if faster == 0 {
		t.Error("the search never beat the Eq. 1 pair")
	}
}

// preorderTrees lists every pre-order tree on n vertices: vertex v's parent is
// v−1 or one of v−1's ancestors.
func preorderTrees(n int) [][]int {
	var out [][]int
	parent := make([]int, n)
	parent[0] = -1
	var fill func(v int)
	fill = func(v int) {
		if v == n {
			out = append(out, append([]int(nil), parent...))
			return
		}
		for u := v - 1; u >= 0; u = parent[u] {
			parent[v] = u
			fill(v + 1)
		}
	}
	fill(1)
	return out
}

// TestMidRootIsTheOptimum: on rows small enough to list every pair of
// pre-order halves, the search's critical path is the least of every pair
// that moves no more hops than the Eq. 1 pair.
func TestMidRootIsTheOptimum(t *testing.T) {
	for p := 2; p <= 13; p++ {
		wests, easts := preorderTrees(p/2+1), preorderTrees(p-p/2)
		for _, b := range []int{1, 3, 8, 32} {
			ew, ee := eq1Halves(p, b)
			budget := hops(ew.Parent) + hops(ee.Parent)
			best := math.Inf(1)
			for _, w := range wests {
				for _, e := range easts {
					if hops(w)+hops(e) <= budget {
						best = min(best, ctl.MidRootAllReduce(w, e, b))
					}
				}
			}
			west, east := MidRoot(p, b+ctl.Ctl, ctl.TR)
			if got := ctl.MidRootAllReduce(west.Parent, east.Parent, b); got != best {
				t.Errorf("p=%d b=%d: search found %v cycles, the best pair in budget runs %v", p, b, got, best)
			}
		}
	}
}

// TestMidRootRunsAtItsEstimate: the searched pair, compiled and run on the
// fabric, leaves every PE holding the sum a host loop takes over the inputs,
// in exactly the cycles model.MidRootAllReduce prices it at.
func TestMidRootRunsAtItsEstimate(t *testing.T) {
	for _, p := range []int{2, 7, 16, 33, 64, 129} {
		for _, b := range []int{1, 4, 16, 64} {
			west, east := MidRoot(p, b+ctl.Ctl, ctl.TR)
			spec := fabric.NewSpec(p, 1)
			path := mesh.Row(0, 0, p)
			if err := comm.BuildAllReduceMidRoot(spec, comm.RowLane(p, b), west, east, fabric.OpSum); err != nil {
				t.Fatalf("p=%d b=%d: %v", p, b, err)
			}
			want := make([]float32, b)
			for v, c := range path {
				in := make([]float32, b)
				for k := range in {
					in[k] = float32((v*7 + k*3) % 11)
					want[k] += in[k]
				}
				spec.PE(c).Init = in
			}
			fab, err := fabric.New(spec, fabric.Options{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := fab.Run()
			if err != nil {
				t.Fatalf("p=%d b=%d: %v", p, b, err)
			}
			for _, c := range path {
				for k, x := range res.Acc[c] {
					if x != want[k] {
						t.Fatalf("p=%d b=%d: PE %v element %d is %v, want %v", p, b, c, k, x, want[k])
					}
				}
			}
			if est := ctl.MidRootAllReduce(west.Parent, east.Parent, b); float64(res.Cycles) != est {
				t.Errorf("p=%d b=%d: ran %d cycles, estimate %v", p, b, res.Cycles, est)
			}
		}
	}
}

// forgetMidRoot empties the memos of both searches: the shared tables, the
// middle root's pairs and the end root's trees.
func forgetMidRoot() {
	midMu.Lock()
	midStairs, midPairs, endTrees = nil, nil, nil
	midMu.Unlock()
}

// TestMidRootMemoIsTheSearch: a remembered pair, and a pair searched over a
// table grown for other rows, is the pair a fresh table finds — from any
// goroutine; and so is the end root's tree, searched on the same tables.
func TestMidRootMemoIsTheSearch(t *testing.T) {
	points := [][2]int{{16, 1}, {512, 16}, {64, 16}, {257, 1}, {100, 256}, {33, 4}}
	want := map[[2]int][2]comm.Tree{}
	wantEnd := map[[2]int]comm.Tree{}
	for _, pt := range points {
		want[pt] = (&stairs{w: int32(pt[1] + 1), r: 5}).midRoot(pt[0])
		wantEnd[pt] = (&stairs{w: int32(pt[1] + 1), r: 5}).end(pt[0])
	}
	forgetMidRoot()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range points {
				pt := points[(k+g)%len(points)]
				if g == 1 {
					End(pt[0], pt[1]+1, 2) // the end root's search first on this goroutine
				}
				west, east := MidRoot(pt[0], pt[1]+1, 2)
				if fmt.Sprint(west.Parent, east.Parent) != fmt.Sprint(want[pt][0].Parent, want[pt][1].Parent) {
					t.Errorf("p=%d b=%d: memo and fresh search disagree", pt[0], pt[1])
				}
				if end := End(pt[0], pt[1]+1, 2); fmt.Sprint(end.Parent) != fmt.Sprint(wantEnd[pt].Parent) {
					t.Errorf("p=%d b=%d: the end root's memo and fresh search disagree", pt[0], pt[1])
				}
			}
		}()
	}
	wg.Wait()
}

var sinkHalves comm.Tree

// BenchmarkMidRootHalves times the middle root's search: the first call at a
// point, which builds the staircases for its transfer length, and a call the
// memo answers.
func BenchmarkMidRootHalves(b *testing.B) {
	for _, p := range []int{64, 512, 2048} {
		For(p) // the Eq. 1 halves' table is not this search's cost
		for _, w := range []int{1, 16, 256, 4096} {
			b.Run(fmt.Sprintf("p=%d/b=%d/first", p, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					forgetMidRoot()
					sinkHalves, _ = MidRoot(p, w+1, 2)
				}
			})
			b.Run(fmt.Sprintf("p=%d/b=%d/memo", p, w), func(b *testing.B) {
				MidRoot(p, w+1, 2)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sinkHalves, _ = MidRoot(p, w+1, 2)
				}
			})
		}
	}
}
