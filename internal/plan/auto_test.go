package plan

import (
	"fmt"
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
// min each meet every schedule.
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
	for _, schedule := range []string{
		"allreduce1d/autogen", "allreduce1d/ring", "allreduce-midroot/autogen",
		"reducescatter/ring", "reducescatter/autogen", "allgather/ring", "allgather/star",
	} {
		if ran[schedule] == 0 {
			t.Errorf("no cell of the walk ran %s (ran %v)", schedule, ran)
		}
	}
}
