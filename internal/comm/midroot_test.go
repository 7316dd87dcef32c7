package comm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fabric"
	"repro/internal/mesh"
	"repro/internal/model"
)

// runAllReduceRow runs an AllReduce program build compiles for a row of p
// PEs, with PE j holding in[j], checks that every PE ends with want bit for
// bit, and returns the cycles.
func runAllReduceRow(build func(*fabric.Spec) error, in [][]float32, want []float32, opt fabric.Options) (int64, error) {
	p := len(in)
	spec := fabric.NewSpec(p, 1)
	if err := build(spec); err != nil {
		return 0, err
	}
	path := mesh.Row(0, 0, p)
	for j, c := range path {
		spec.PE(c).Init = append([]float32(nil), in[j]...)
	}
	f, err := fabric.New(spec, opt)
	if err != nil {
		return 0, err
	}
	res, err := f.Run()
	if err != nil {
		return 0, err
	}
	for _, c := range path {
		for i, v := range res.Acc[c] {
			if math.Float32bits(v) != math.Float32bits(want[i]) {
				return 0, fmt.Errorf("PE %v holds %v at %d, want %v", c, v, i, want[i])
			}
		}
	}
	return res.Cycles, nil
}

// foldHost is the fold's combination on the host, in the chain's order: the
// west half from the start, then the east half from the end back to the
// middle, each PE combining its own vector with what reaches it.
func foldHost(in [][]float32, op fabric.ReduceOp) []float32 {
	p, mid := len(in), len(in)/2
	order := make([]int, 0, p)
	for v := 0; v < mid; v++ {
		order = append(order, v)
	}
	for v := p - 1; v >= mid; v-- {
		order = append(order, v)
	}
	acc := append([]float32(nil), in[order[0]]...)
	for _, v := range order[1:] {
		for i, x := range in[v] {
			acc[i] = op.Apply(x, acc[i])
		}
	}
	return acc
}

// TestFoldRunsAtItsEstimate runs the fold on every row of 2 to 40 PEs over
// ten vector lengths, at T_R 1 to 3 and queue depths 1, 2, 4 and 16, and on
// rows of 64, 129 and 257 PEs, under Sum of random values and, once a shape,
// under Max. Every PE must end with the host loop's vector bit for bit. The
// fold is the end-rooted chain AllReduce folded across the middle, so it runs
// at that AllReduce's estimate wherever the end-rooted chain itself does, and
// never takes longer than the end-rooted chain.
func TestFoldRunsAtItsEstimate(t *testing.T) {
	type shape struct{ p, b int }
	var shapes []shape
	for p := 2; p <= 40; p++ {
		for _, b := range []int{1, 2, 3, 5, 8, 13, 32, 64, 100, 256} {
			shapes = append(shapes, shape{p, b})
		}
	}
	for _, p := range []int{64, 129, 257} {
		for _, b := range []int{1, 16, 256} {
			shapes = append(shapes, shape{p, b})
		}
	}
	rng := rand.New(rand.NewSource(33))
	exact := 0
	for _, sh := range shapes {
		p, b := sh.p, sh.b
		in := make([][]float32, p)
		for j := range in {
			in[j] = make([]float32, b)
			for i := range in[j] {
				in[j][i] = float32(rng.NormFloat64()) * 3.7
			}
		}
		fold := func(op fabric.ReduceOp) func(*fabric.Spec) error {
			return func(s *fabric.Spec) error { return BuildAllReduceFold(s, RowLane(p, b), op) }
		}
		chain := func(s *fabric.Spec) error { return BuildAllReduce1D(s, RowLane(p, b), Chain(p), fabric.OpMax) }
		for tr := 1; tr <= 3; tr++ {
			form := model.Params{TR: tr, Ctl: 1}
			want := form.Then(form.ChainReduce(p, b), form.Broadcast1D(p, b))
			for _, q := range []int{1, 2, 4, 16} {
				opt := fabric.Options{TR: tr, QueueCap: q}
				if p > 40 && (tr != fabric.DefaultTR || q != 4) {
					continue
				}
				name := fmt.Sprintf("p=%d b=%d T_R=%d queue %d", p, b, tr, q)
				cycles, err := runAllReduceRow(fold(fabric.OpSum), in, foldHost(in, fabric.OpSum), opt)
				if err != nil {
					t.Fatalf("%s, sum: %v", name, err)
				}
				if tr == fabric.DefaultTR && q == 4 { // the operator moves no cycle: Max once per shape
					if again, err := runAllReduceRow(fold(fabric.OpMax), in, foldHost(in, fabric.OpMax), opt); err != nil || again != cycles {
						t.Fatalf("%s, max: %d cycles (sum: %d), %v", name, again, cycles, err)
					}
				}
				end, err := runAllReduceRow(chain, in, foldHost(in, fabric.OpMax), opt)
				if err != nil {
					t.Fatalf("%s, end-rooted chain: %v", name, err)
				}
				if cycles > end {
					t.Errorf("%s: the fold takes %d cycles, the end-rooted chain %d", name, cycles, end)
				}
				if float64(end) == want {
					exact++
					if float64(cycles) != want {
						t.Errorf("%s: %d cycles, estimate %v (the end-rooted chain runs at it)", name, cycles, want)
					}
				}
			}
		}
	}
	if exact == 0 {
		t.Error("the end-rooted chain ran at its estimate nowhere")
	}
	t.Logf("%d runs at the estimate", exact)
}
