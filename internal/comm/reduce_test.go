package comm

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/fabric"
	"repro/internal/mesh"
)

// inputs generates deterministic per-PE vectors and their elementwise sum.
func inputs(p, b int, seed int64) ([][]float32, []float32) {
	vecs := make([][]float32, p)
	sum := make([]float32, b)
	s := uint64(seed)*2654435761 + 1
	for i := range vecs {
		v := make([]float32, b)
		for j := range v {
			s = s*6364136223846793005 + 1442695040888963407
			v[j] = float32(int64(s>>40)%1000) / 8
			sum[j] += v[j]
		}
		vecs[i] = v
	}
	return vecs, sum
}

func almostEqual(a, b []float32) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		diff := math.Abs(float64(a[i] - b[i]))
		tol := 1e-3 * (1 + math.Abs(float64(b[i])))
		if diff > tol {
			return fmt.Errorf("element %d: got %v want %v", i, a[i], b[i])
		}
	}
	return nil
}

// runReduce1D builds and runs a 1D reduce on a row and returns the result.
func runReduce1D(t *testing.T, pattern string, p, b int) (*fabric.Result, [][]float32, []float32) {
	t.Helper()
	tree, err := TreeOf(pattern, p)
	if err != nil {
		t.Fatalf("TreeOf: %v", err)
	}
	spec := fabric.NewSpec(p, 1)
	path := mesh.Row(0, 0, p)
	if err := BuildTreeReduce(spec, Lane{Path: path, N: b}, tree, fabric.OpSum); err != nil {
		t.Fatalf("build: %v", err)
	}
	vecs, want := inputs(p, b, int64(p*1000+b))
	for i, c := range path {
		spec.PE(c).Init = vecs[i]
	}
	f, err := fabric.New(spec, fabric.Options{})
	if err != nil {
		t.Fatalf("fabric.New: %v", err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatalf("run %s p=%d b=%d: %v", pattern, p, b, err)
	}
	return res, vecs, want
}

func TestReduce1DCorrectness(t *testing.T) {
	for _, pattern := range []string{"star", "chain", "tree", "twophase"} {
		for _, p := range []int{1, 2, 3, 4, 5, 8, 16, 33} {
			for _, b := range []int{1, 2, 7, 32} {
				t.Run(fmt.Sprintf("%s/p%d/b%d", pattern, p, b), func(t *testing.T) {
					res, _, want := runReduce1D(t, pattern, p, b)
					if err := almostEqual(res.Acc[mesh.Coord{X: 0, Y: 0}], want); err != nil {
						t.Fatalf("root result: %v", err)
					}
				})
			}
		}
	}
}

func TestChainReduceMatchesLemma52(t *testing.T) {
	// Lemma 5.2: T_chain = B + (2T_R+2)(P-1). Our implementation adds a
	// trailing control wavelet per transfer and a few constant cycles of
	// ramp/drain overhead, so allow a small additive slack.
	for _, p := range []int{2, 8, 64, 256} {
		for _, b := range []int{1, 64, 1024} {
			res, _, _ := runReduce1D(t, "chain", p, b)
			model := int64(b + (2*fabric.DefaultTR+2)*(p-1))
			slack := int64(2*fabric.DefaultTR + 6)
			if res.Cycles < model || res.Cycles > model+slack+int64(p) {
				t.Errorf("p=%d b=%d: measured %d, model %d (+slack %d)", p, b, res.Cycles, model, slack+int64(p))
			}
		}
	}
}

func TestStarReduceContention(t *testing.T) {
	// Star reduce's runtime is dominated by root contention B(P-1).
	res, _, _ := runReduce1D(t, "star", 16, 64)
	if res.Stats.MaxReceived != 64*15 {
		t.Errorf("root received %d data wavelets, want %d", res.Stats.MaxReceived, 64*15)
	}
	model := int64(64*15 + 2*fabric.DefaultTR + 1)
	if res.Cycles < model || res.Cycles > model+64 {
		t.Errorf("measured %d, model %d", res.Cycles, model)
	}
}

func TestBroadcast1D(t *testing.T) {
	for _, p := range []int{2, 4, 32, 512} {
		for _, b := range []int{1, 8, 256} {
			spec := fabric.NewSpec(p, 1)
			path := mesh.Row(0, 0, p)
			if err := BuildFlood(spec, Lane{Path: path, N: b, Base: ColorBcast}, 0); err != nil {
				t.Fatalf("build: %v", err)
			}
			vecs, _ := inputs(1, b, 7)
			spec.PE(path[0]).Init = vecs[0]
			f, err := fabric.New(spec, fabric.Options{})
			if err != nil {
				t.Fatalf("fabric.New: %v", err)
			}
			res, err := f.Run()
			if err != nil {
				t.Fatalf("run p=%d b=%d: %v", p, b, err)
			}
			for _, c := range path {
				if err := almostEqual(res.Acc[c], vecs[0]); err != nil {
					t.Fatalf("p=%d b=%d PE %v: %v", p, b, c, err)
				}
			}
			// Lemma 4.1: T = B + P + 2T_R (plus control+drain slack).
			model := int64(b + p + 2*fabric.DefaultTR)
			if res.Cycles < model-1 || res.Cycles > model+int64(2*fabric.DefaultTR+6) {
				t.Errorf("p=%d b=%d: measured %d, model %d", p, b, res.Cycles, model)
			}
		}
	}
}

func TestAllReduce1DCorrectness(t *testing.T) {
	for _, pattern := range []string{"star", "chain", "tree", "twophase"} {
		for _, p := range []int{2, 5, 16, 33} {
			for _, b := range []int{1, 9, 64} {
				tree, err := TreeOf(pattern, p)
				if err != nil {
					t.Fatal(err)
				}
				spec := fabric.NewSpec(p, 1)
				path := mesh.Row(0, 0, p)
				if err := BuildAllReduce1D(spec, Lane{Path: path, N: b}, tree, fabric.OpSum); err != nil {
					t.Fatalf("build: %v", err)
				}
				vecs, want := inputs(p, b, int64(p+b))
				for i, c := range path {
					spec.PE(c).Init = vecs[i]
				}
				f, err := fabric.New(spec, fabric.Options{})
				if err != nil {
					t.Fatal(err)
				}
				res, err := f.Run()
				if err != nil {
					t.Fatalf("run %s p=%d b=%d: %v", pattern, p, b, err)
				}
				for _, c := range path {
					if err := almostEqual(res.Acc[c], want); err != nil {
						t.Fatalf("%s p=%d b=%d PE %v: %v", pattern, p, b, c, err)
					}
				}
			}
		}
	}
}

func TestReduce2DCorrectness(t *testing.T) {
	grids := [][2]int{{2, 2}, {4, 3}, {8, 8}, {5, 7}}
	for _, g := range grids {
		w, h := g[0], g[1]
		for _, b := range []int{1, 16} {
			for _, mode := range []string{"xy-chain", "xy-tree", "xy-tree-streamed", "snake"} {
				spec := fabric.NewSpec(w, h)
				var err error
				switch mode {
				case "xy-chain":
					err = BuildReduceXY(spec, w, h, Chain(w), Chain(h), b, false, fabric.OpSum)
				case "xy-tree":
					err = BuildReduceXY(spec, w, h, Binomial(w), Binomial(h), b, false, fabric.OpSum)
				case "xy-tree-streamed":
					err = BuildReduceXY(spec, w, h, Binomial(w), Binomial(h), b, true, fabric.OpSum)
				case "snake":
					err = BuildReduceSnake(spec, w, h, b, Chain(w*h), fabric.OpSum)
				}
				if err != nil {
					t.Fatalf("%s %dx%d: %v", mode, w, h, err)
				}
				vecs, want := inputs(w*h, b, int64(w*100+h))
				i := 0
				for y := 0; y < h; y++ {
					for x := 0; x < w; x++ {
						spec.PE(mesh.Coord{X: x, Y: y}).Init = vecs[i]
						i++
					}
				}
				f, err := fabric.New(spec, fabric.Options{})
				if err != nil {
					t.Fatal(err)
				}
				res, err := f.Run()
				if err != nil {
					t.Fatalf("run %s %dx%d b=%d: %v", mode, w, h, b, err)
				}
				if err := almostEqual(res.Acc[mesh.Coord{X: 0, Y: 0}], want); err != nil {
					t.Fatalf("%s %dx%d b=%d: %v", mode, w, h, b, err)
				}
			}
		}
	}
}

func TestAllReduce2DCorrectness(t *testing.T) {
	w, h, b := 6, 4, 8
	spec := fabric.NewSpec(w, h)
	// The 2D AllReduce of §7.4: X-Y Reduce to (0,0), then the 2D flood.
	if err := BuildReduceXY(spec, w, h, TwoPhase(w, 0), TwoPhase(h, 0), b, false, fabric.OpSum); err != nil {
		t.Fatal(err)
	}
	if err := BuildBroadcast2D(spec, w, h, mesh.Coord{}, b, ColorBcast2); err != nil {
		t.Fatal(err)
	}
	vecs, want := inputs(w*h, b, 42)
	i := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			spec.PE(mesh.Coord{X: x, Y: y}).Init = vecs[i]
			i++
		}
	}
	f, err := fabric.New(spec, fabric.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if err := almostEqual(res.Acc[mesh.Coord{X: x, Y: y}], want); err != nil {
				t.Fatalf("PE (%d,%d): %v", x, y, err)
			}
		}
	}
}
