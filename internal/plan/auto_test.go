package plan

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mesh"
)

// TestAutoSchedulesComputeTheirKind: whichever schedule the model picks, the
// collective is the one that was asked for. Over every row length from 1 to
// 40 and vector length from 1 to 64 — odd rows, two and three PEs, vectors
// shorter than the row and exactly as long — each kind whose Auto ranges
// over more than trees resolves to a request that validates, runs, and
// leaves on every PE what the kind's contract says, checked against a plain
// loop over the inputs: the combined vector everywhere for an AllReduce
// (wherever its root went, Report.Root is it too), chunk j at its Chunks
// offset of PE j for a ReduceScatter, the assembled vector everywhere for an
// AllGather. The reduction operator rotates with the cell, so sum, max and
// min each meet every schedule. The AllGather also runs under queues two deep,
// too shallow for the streamed middle root, where the star through the middle
// PE still wins. And an Auto AllReduce on an 8×8 grid at 16 wavelets runs the
// split, its rows all-gathering through the streamed middle root, and leaves
// the combined vector on every PE.
func TestAutoSchedulesComputeTheirKind(t *testing.T) {
	if raceEnabled {
		t.Skip("thousands of one-shot runs")
	}
	ran := map[string]int{}
	for p := 1; p <= 40; p++ {
		for b := 1; b <= 64; b++ {
			op := fabric.ReduceOp((p + b) % 3)
			for _, req := range []Request{
				{Kind: AllReduce1D, Alg: core.Auto, P: p, B: b, Op: op},
				{Kind: ReduceScatter, P: p, B: b, Op: op},
				{Kind: AllGather, P: p, B: b},
				{Kind: AllGather, P: p, B: b, Opt: fabric.Options{QueueCap: 2}},
			} {
				if req.Validate() != nil {
					continue // a chunked kind on one PE, or with B < P
				}
				name := fmt.Sprintf("%s p=%d b=%d op=%v", req.Kind, p, b, op)
				res := req.Resolve()
				if err := res.Validate(); err != nil {
					t.Fatalf("%s resolves to %+v: %v", name, res, err)
				}
				ran[string(res.Kind)+"/"+string(res.Alg)]++
				pl, err := Compile(req)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if pl.Kind != res.Kind || pl.Alg != res.Alg {
					t.Fatalf("%s: Resolve says %s/%s, Compile built %s/%s", name, res.Kind, res.Alg, pl.Kind, pl.Alg)
				}
				// Small integers: exact in float32 under any association.
				seq := 0
				inputs := req.Inputs(func(n int) []float32 {
					v := make([]float32, n)
					for i := range v {
						seq++
						v[i] = float32(seq * 7 % 13)
					}
					return v
				})
				rep, err := pl.Execute(inputs)
				if err != nil {
					t.Fatalf("%s (%s/%s): %v", name, res.Kind, res.Alg, err)
				}
				var want []float32
				if req.Kind == AllGather {
					for _, chunk := range inputs {
						want = append(want, chunk...)
					}
				} else {
					want = append(want, inputs[0]...)
					for _, v := range inputs[1:] {
						for i, x := range v {
							want[i] = op.Apply(want[i], x)
						}
					}
				}
				off, sz := core.Chunks(p, b)
				for j := 0; j < p; j++ {
					acc, lo, hi := rep.All[mesh.Coord{X: j}], 0, b
					if req.Kind == ReduceScatter {
						lo, hi = off[j], off[j]+sz[j]
					}
					if len(acc) < hi || !sameVec(acc[lo:hi], want[lo:hi]) {
						t.Fatalf("%s (%s/%s): PE %d holds %v, want %v in [%d,%d)", name, res.Kind, res.Alg, j, acc, want, lo, hi)
					}
				}
				if req.Kind == AllReduce1D && !sameVec(rep.Root[:b], want) {
					t.Fatalf("%s (%s/%s): Report.Root %v, want %v", name, res.Kind, res.Alg, rep.Root, want)
				}
			}
		}
	}
	// An 8×8 grid at 16 wavelets resolves to the split, whose rows all-gather
	// through the streamed middle root from their staggered ready cycles.
	req := Request{Kind: AllReduce2D, Alg2D: core.Auto2D, Width: 8, Height: 8, B: 16, Op: fabric.OpSum}
	pl, err := Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Alg2D == core.Split && rowsStream(pl.Spec, 8, 8) {
		ran["allreduce2d/split/star-stream"]++
	}
	seq := 0
	inputs := req.Inputs(func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			seq++
			v[i] = float32(seq * 7 % 13)
		}
		return v
	})
	rep, err := pl.Execute(inputs)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float32(nil), inputs[0]...)
	for _, v := range inputs[1:] {
		for i, x := range v {
			want[i] += x
		}
	}
	for c, acc := range rep.All {
		if !sameVec(acc[:16], want) {
			t.Fatalf("8x8 b=16 (%s): PE %v holds %v, want %v", pl.Alg2D, c, acc, want)
		}
	}
	for _, schedule := range []string{
		"allreduce1d/autogen", "allreduce1d/ring", "allreduce-midroot/autogen", "allreduce2d/split/star-stream",
		"reducescatter/ring", "reducescatter/autogen", "allgather/ring", "allgather/star",
		"allgather/gather-flood", "allgather/star-stream",
	} {
		if ran[schedule] == 0 {
			t.Errorf("no cell of the walk ran %s (ran %v)", schedule, ran)
		}
	}
}

// TestAutoPriceIsPredict: an Auto choice hands Compile and Predict the price
// it picked its schedule by, so that neither prices the schedule again. That
// price is, to the bit, the kind's estimate of the resolved request, on
// every cell of the lattice and under Auto for every kind that has it.
func TestAutoPriceIsPredict(t *testing.T) {
	reqs := Lattice()
	for p := 2; p <= 64; p += 7 {
		for _, b := range []int{1, 4, 16, 64, 256} {
			reqs = append(reqs,
				Request{Kind: Reduce1D, Alg: core.Auto, P: p, B: b},
				Request{Kind: AllReduce1D, Alg: core.Auto, P: p, B: b},
				Request{Kind: AllReduceMidRoot, Alg: core.Auto, P: p, B: b},
				Request{Kind: ReduceScatter, P: p, B: b},
				Request{Kind: AllGather, P: p, B: b, Opt: fabric.Options{QueueCap: 2}},
				Request{Kind: Reduce2D, Alg2D: core.Auto2D, Width: p/4 + 1, Height: p/7 + 1, B: b},
				Request{Kind: AllReduce2D, Alg2D: core.Auto2D, Width: p/4 + 1, Height: p/7 + 1, B: b},
			)
		}
	}
	priced := 0
	for _, req := range reqs {
		res, got, ok := req.resolve()
		if !ok {
			continue
		}
		priced++
		want := InfoOf(res.Kind).predict(res, core.Params(res.Opt))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%v resolves to %s%s priced %v; its estimate is %v", KeyOf(req), res.Alg, res.Alg2D, got, want)
		}
	}
	if priced < len(reqs)/4 {
		t.Fatalf("only %d of %d requests were priced by a choice", priced, len(reqs))
	}
}
