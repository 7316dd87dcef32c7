package planstore

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mesh"
	"repro/internal/plan"
)

// scatterColor is the color core's ReduceScatter through the root scatters on.
const scatterColor mesh.Color = 5

// fromTrees compiles the program of a tree-bearing plan from the trees the plan
// records and nothing else of the compiler's: the comm builder of its
// schedule, handed p.Tree, p.RowTree and p.ColTree.
func fromTrees(p *plan.Plan) (*fabric.Spec, error) {
	lane := comm.RowLane(p.P, p.B)
	spec := fabric.NewSpec(p.P, 1)
	switch p.Kind {
	case plan.Reduce1D:
		return spec, comm.BuildTreeReduce(spec, lane, p.Tree, p.Op)
	case plan.AllReduce1D:
		return spec, comm.BuildAllReduce1D(spec, lane, p.Tree, p.Op)
	case plan.AllReduceMidRoot:
		return spec, comm.BuildAllReduceMidRoot(spec, lane, p.RowTree, p.ColTree, p.Op)
	case plan.ReduceScatter:
		if err := comm.BuildTreeReduce(spec, lane, p.Tree, p.Op); err != nil {
			return nil, err
		}
		row := mesh.Row(0, 0, p.P)
		if err := comm.BuildScatter(spec, row, p.B, scatterColor); err != nil {
			return nil, err
		}
		// Each chunk lands at its offset of the B-element image.
		off, _ := core.Chunks(p.P, p.B)
		for v, c := range row[1:] {
			ops := append([]fabric.Op(nil), spec.Program(c).Ops...)
			ops[len(ops)-1].Off = off[v+1]
			spec.SetOps(c, ops)
		}
		return spec, nil
	case plan.Reduce2D, plan.AllReduce2D:
		spec = fabric.NewSpec(p.Width, p.Height)
		var err error
		if p.Alg2D == core.SnakeAutoGen {
			err = comm.BuildReduceSnake(spec, p.Width, p.Height, p.B, p.Tree, p.Op)
		} else {
			err = comm.BuildReduceXY(spec, p.Width, p.Height, p.RowTree, p.ColTree, p.B, p.Alg2D == core.XYAutoGen, p.Op)
		}
		if err != nil {
			return nil, err
		}
		if p.Kind == plan.AllReduce2D {
			return spec, comm.BuildBroadcast2D(spec, p.Width, p.Height, mesh.Coord{}, p.B, comm.ColorBcast2)
		}
		return spec, nil
	}
	return nil, fmt.Errorf("%s records no trees", p.Kind)
}

// TestRecordedTreesAreTheProgram: for every tree-bearing kind under every
// pattern that reduces over a tree, Auto-Gen's searched trees included, the
// trees of a plan that went through the store's frame rebuild the very
// program the compiler made: the two specs encode byte for byte alike.
func TestRecordedTreesAreTheProgram(t *testing.T) {
	var reqs []plan.Request
	for _, pb := range [][2]int{{7, 1}, {16, 16}, {64, 256}} {
		p, b := pb[0], pb[1]
		for _, pat := range core.Patterns1D {
			for _, kind := range []plan.Kind{plan.Reduce1D, plan.AllReduce1D, plan.AllReduceMidRoot} {
				reqs = append(reqs, plan.Request{Kind: kind, Alg: pat, P: p, B: b, Op: fabric.OpSum})
			}
		}
	}
	for _, wh := range [][3]int{{8, 8, 16}, {5, 7, 1}, {17, 17, 16}} {
		for _, pat := range []core.Pattern2D{core.XYStar, core.XYChain, core.XYTree, core.XYTwoPhase, core.XYAutoGen, core.SnakeAutoGen} {
			for _, kind := range []plan.Kind{plan.Reduce2D, plan.AllReduce2D} {
				reqs = append(reqs, plan.Request{Kind: kind, Alg2D: pat, Width: wh[0], Height: wh[1], B: wh[2], Op: fabric.OpMax})
			}
		}
	}
	// A ReduceScatter names no algorithm; these resolve to the Reduce through
	// the root under Auto-Gen's tree.
	for _, pb := range [][2]int{{16, 16}, {256, 256}} {
		reqs = append(reqs, plan.Request{Kind: plan.ReduceScatter, P: pb[0], B: pb[1], Op: fabric.OpSum})
	}
	for _, req := range reqs {
		compiled := mustCompile(t, req)
		name := fmt.Sprintf("%v (%s%s)", compiled.Key, compiled.Alg, compiled.Alg2D)
		if req.Kind == plan.ReduceScatter && compiled.Alg == core.Ring {
			t.Fatalf("%s: resolved to the ring, which has no tree", name)
		}
		frame, _, err := Encode(compiled)
		if err != nil {
			t.Fatal(err)
		}
		loaded, _, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := fromTrees(loaded)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := spec.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		want, err := compiled.Spec.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: the recorded trees rebuild a different program", name)
		}
	}
}
