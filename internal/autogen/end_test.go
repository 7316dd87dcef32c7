package autogen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/fabric"
	"repro/internal/mesh"
	"repro/internal/model"
)

// TestEndIsNoWorse: over P = 2…40 and larger rows, and B from one wavelet to
// 16 KB, the searched tree is a valid pre-order tree over the row, its
// critical path is never longer than the Eq. 1 tree's, and it moves no more
// hops.
func TestEndIsNoWorse(t *testing.T) {
	ps := []int{64, 100, 129, 256, 257, 300, 512}
	for p := 2; p <= 40; p++ {
		ps = append(ps, p)
	}
	faster := 0
	for _, p := range ps {
		for _, b := range []int{1, 2, 4, 16, 64, 256, 1024, 4096} {
			tree := End(p, b+ctl.Ctl, ctl.TR)
			if tree.Len() != p {
				t.Fatalf("p=%d b=%d: a tree of %d PEs", p, b, tree.Len())
			}
			if err := tree.Validate(); err != nil {
				t.Fatalf("p=%d b=%d: %v", p, b, err)
			}
			eq1 := For(p).Tree(p, b+ctl.Ctl, ctl.TR)
			got, was := ctl.CriticalPath(tree.Parent, b), ctl.CriticalPath(eq1.Parent, b)
			if got > was {
				t.Errorf("p=%d b=%d: searched tree %v cycles, Eq. 1 tree %v", p, b, got, was)
			}
			if h, eq1 := hops(tree.Parent), hops(eq1.Parent); h > eq1 {
				t.Errorf("p=%d b=%d: searched tree moves %d hops a wavelet, Eq. 1 tree %d", p, b, h, eq1)
			}
			if got < was {
				faster++
			}
		}
	}
	if faster == 0 {
		t.Error("the search never beat the Eq. 1 tree")
	}
	// The measurement that opened the search: 64 PEs, 1 KB.
	eq1 := For(64).Tree(64, 257, ctl.TR)
	if got, was := ctl.CriticalPath(End(64, 257, ctl.TR).Parent, 256), ctl.CriticalPath(eq1.Parent, 256); got != 557 || was != 626 {
		t.Errorf("64 PEs, 1 KB: searched tree %v cycles, Eq. 1 tree %v; want 557 and 626", got, was)
	}
}

// TestEndIsTheOptimum: on rows small enough to list every pre-order tree, the
// search's critical path is the least of every tree that moves no more hops
// than the Eq. 1 tree.
func TestEndIsTheOptimum(t *testing.T) {
	for p := 2; p <= 11; p++ {
		trees := preorderTrees(p)
		for _, b := range []int{1, 3, 8, 32} {
			budget := hops(For(p).Tree(p, b+ctl.Ctl, ctl.TR).Parent)
			best := math.Inf(1)
			for _, tree := range trees {
				if hops(tree) <= budget {
					best = min(best, ctl.CriticalPath(tree, b))
				}
			}
			if got := ctl.CriticalPath(End(p, b+ctl.Ctl, ctl.TR).Parent, b); got != best {
				t.Errorf("p=%d b=%d: search found %v cycles, the best tree in budget runs %v", p, b, got, best)
			}
		}
	}
}

// TestEndIsTheSameWhateverTheTable: the tree does not depend on what the
// shared table was built for before — fresh, widened by the middle root's
// search at the same point, or by either search at a larger row — nor on
// the memo.
func TestEndIsTheSameWhateverTheTable(t *testing.T) {
	points := [][2]int{{16, 1}, {33, 4}, {64, 16}, {100, 256}, {257, 1}, {512, 16}}
	for _, pt := range points {
		p, w := pt[0], pt[1]+ctl.Ctl
		fresh := (&stairs{w: int32(w), r: 5}).end(p)

		midFirst := &stairs{w: int32(w), r: 5}
		midFirst.midRoot(p)
		afterMid := midFirst.end(p)

		wide := &stairs{w: int32(w), r: 5}
		wide.end(p + 40)
		wide.midRoot(p + 80)
		afterWide := wide.end(p)

		forgetMidRoot()
		MidRoot(p, w, ctl.TR)
		memo := End(p, w, ctl.TR)
		again := End(p, w, ctl.TR)

		for name, tree := range map[string]comm.Tree{"after MidRoot": afterMid, "on a wider table": afterWide, "from the memo": memo, "remembered": again} {
			if !slices.Equal(tree.Parent, fresh.Parent) {
				t.Errorf("p=%d b=%d: the tree %s differs from a fresh table's", p, pt[1], name)
			}
		}
	}
}

// TestEndSearchRunsAtItsEstimate: the searched tree, compiled and run on the
// fabric at the default queue depth, finishes in exactly the cycles
// model.CriticalPath prices it at, on every row of P = 2…300 PEs, B ∈ {1, 2,
// 4, 8, 16, 64, 256} wavelets and T_R ∈ {1, 2, 3}; and the root holds what a
// host loop over the inputs computes, bit for bit — Sum over small integers
// (exact in float32 in any order) on even cells, Max over random values on
// odd ones. -short thins P to every seventh row. The rows run longest first,
// so that each transfer length's table is built once, for the longest.
func TestEndSearchRunsAtItsEstimate(t *testing.T) {
	step := 1
	if testing.Short() {
		step = 7
	}
	rng := rand.New(rand.NewSource(1))
	cell := 0
	for tr := 1; tr <= 3; tr++ {
		pr := model.Params{TR: tr, Ctl: 1}
		for _, b := range []int{1, 2, 4, 8, 16, 64, 256} {
			for p := 300; p >= 2; p -= step {
				cell++
				tree := End(p, b+pr.Ctl, tr)
				op := fabric.OpSum
				if cell%2 == 1 {
					op = fabric.OpMax
				}
				spec := fabric.NewSpec(p, 1)
				if err := comm.BuildTreeReduce(spec, comm.RowLane(p, b), tree, op); err != nil {
					t.Fatalf("p=%d b=%d tr=%d: %v", p, b, tr, err)
				}
				want := make([]float32, b)
				for v, c := range mesh.Row(0, 0, p) {
					in := make([]float32, b)
					for k := range in {
						if op == fabric.OpSum {
							in[k] = float32(rng.Intn(64))
						} else {
							in[k] = rng.Float32()*2 - 1
						}
						switch {
						case v == 0:
							want[k] = in[k]
						case op == fabric.OpSum:
							want[k] += in[k]
						default:
							want[k] = max(want[k], in[k])
						}
					}
					spec.PE(c).Init = in
				}
				fab, err := fabric.New(spec, fabric.Options{TR: tr})
				if err != nil {
					t.Fatal(err)
				}
				res, err := fab.Run()
				if err != nil {
					t.Fatalf("p=%d b=%d tr=%d: %v", p, b, tr, err)
				}
				for k, x := range res.Acc[mesh.Coord{}] {
					if math.Float32bits(x) != math.Float32bits(want[k]) {
						t.Fatalf("p=%d b=%d tr=%d %v: root element %d is %v, want %v", p, b, tr, op, k, x, want[k])
					}
				}
				if est := pr.CriticalPath(tree.Parent, b); float64(res.Cycles) != est {
					t.Errorf("p=%d b=%d tr=%d: ran %d cycles, estimate %v", p, b, tr, res.Cycles, est)
				}
			}
		}
	}
}

var sinkTree comm.Tree

// BenchmarkEnd times the end root's search: the first call at a point, which
// builds the staircases for its transfer length, the same call right after
// the middle root's search at that point, and a call the memo answers.
func BenchmarkEnd(b *testing.B) {
	for _, p := range []int{64, 512} {
		For(p) // the Eq. 1 tree's table is not this search's cost
		for _, w := range []int{1, 16, 256} {
			b.Run(fmt.Sprintf("p=%d/b=%d/first", p, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					forgetMidRoot()
					sinkTree = End(p, w+1, 2)
				}
			})
			b.Run(fmt.Sprintf("p=%d/b=%d/after-midroot", p, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					forgetMidRoot()
					MidRoot(p, w+1, 2)
					b.StartTimer()
					sinkTree = End(p, w+1, 2)
				}
			})
			b.Run(fmt.Sprintf("p=%d/b=%d/memo", p, w), func(b *testing.B) {
				End(p, w+1, 2)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sinkTree = End(p, w+1, 2)
				}
			})
		}
	}
}
