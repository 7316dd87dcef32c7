package wse

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mesh"
	"repro/internal/plan"
)

// placement is where a run of a kind leaves its result, as the kind's
// contract states it: at the root alone, on every PE, or chunk j on PE j —
// at the front of its accumulator, or at the chunk's offset of it.
type placement int

const (
	atRoot placement = iota
	everywhere
	chunkAtFront
	chunkAtOffset
)

// contract is spelled here, not read off the kind table, so that the check
// below is a reference the table and its builders cannot move with them.
var contract = map[Collective]placement{
	KindReduce: atRoot, KindReduce2D: atRoot, KindGather: atRoot,
	KindAllReduce: everywhere, KindAllReduceMidRoot: everywhere, KindAllReduce2D: everywhere,
	KindBroadcast: everywhere, KindBroadcast2D: everywhere, KindAllGather: everywhere,
	KindScatter: chunkAtFront, KindReduceScatter: chunkAtOffset,
}

// hostResult is what a plain loop over a run's inputs says its result is: the
// inputs combined elementwise under the shape's operator when there is one
// vector per PE, the root's vector when there is one vector, and the chunks
// put together when there is one chunk per PE.
func hostResult(sh Shape, ki *plan.KindInfo, inputs [][]float32) []float32 {
	switch ki.Inputs {
	case plan.RootVector:
		return inputs[0]
	case plan.ChunkPerPE:
		return slices.Concat(inputs...)
	}
	out := slices.Clone(inputs[0])
	for _, v := range inputs[1:] {
		for i, x := range v {
			out[i] = sh.Op.Apply(out[i], x)
		}
	}
	return out
}

// checkResult holds every PE of a run of sh to its kind's contract; want is
// hostResult's vector.
func checkResult(t *testing.T, name string, sh Shape, ki *plan.KindInfo, want []float32, rep *Report) {
	t.Helper()
	width, height := sh.P, 1
	if ki.Grid {
		width, height = sh.Width, sh.Height
	}
	if len(rep.All) != width*height {
		t.Errorf("%s: %d PEs reported, want %d", name, len(rep.All), width*height)
	}
	off, sz := Chunks(sh.P, sh.B)
	for j := 0; j < width*height; j++ {
		c := Coord{X: j % width, Y: j / width}
		got, exp := rep.All[c], want
		switch contract[sh.Kind] {
		case atRoot:
			if j > 0 {
				continue
			}
		case chunkAtFront, chunkAtOffset:
			lo := 0
			if contract[sh.Kind] == chunkAtOffset {
				lo = off[j]
			}
			if len(got) < lo+sz[j] {
				t.Errorf("%s: PE %v holds %v, too short for chunk %d", name, c, got, j)
				continue
			}
			got, exp = got[lo:lo+sz[j]], want[off[j]:off[j]+sz[j]]
		}
		if !slices.Equal(got, exp) {
			t.Errorf("%s: PE %v holds %v, want %v", name, c, got, exp)
		}
	}
}

// TestKindTableConformance drives the public verbs off the kind table
// (internal/plan/kinds.go): every row, under every algorithm it accepts and
// every operator, validates, rejects an algorithm outside its family as
// ErrBadShape, takes inputs built from the row's layout, and runs with
// Report.Predicted equal to Predict of the shape as spelled — Auto and the
// middle root included — leaving on every PE what the kind's contract says,
// checked against a plain loop over the inputs. The inputs are small
// integers, exact in float32 under any order of combination, and differ
// from PE to PE and element to element, so a builder that drops, repeats,
// misplaces or miscombines a contribution fails here. It walks five
// geometries, so that ReduceScatter and AllGather, which take no algorithm,
// run every schedule: the ReduceScatter's ring at the first, its streamed
// ring at the second and third, the composition through the root over
// Auto-Gen's tree at the fourth and over the binomial tree at the fifth —
// the second's shape with queues two deep, too shallow for the streamed
// ring that wins it under default options; the AllGather's streamed middle
// root at the second to fourth, its star through the middle PE at the fifth
// (the queues too shallow for the stream) and its gather-flood at the third's
// shape under those queues, a sixth walked for the AllGather alone; the split
// 2D AllReduce runs at the first four, W dividing B at
// all but the third, and so does the middle root's fold; Auto picks the split
// on a seventh, 8×8 at 16 wavelets, walked for the 2D AllReduce alone, its
// rows all-gathering through the streamed middle root; Auto-Gen's tree
// over the Snake runs pinned on both 2D reduce kinds. The key, layout and
// compile side of the same walk is the plan package's test of the same name.
func TestKindTableConformance(t *testing.T) {
	ran := map[string]bool{}
	for i := range plan.Kinds {
		ki := &plan.Kinds[i]
		if _, ok := contract[ki.Kind]; !ok {
			t.Fatalf("%s: no result contract for the kind", ki.Kind)
		}
		for _, g := range []Shape{{P: 6, Width: 3, Height: 2, B: 120}, {P: 8, Width: 4, Height: 2, B: 8}, {P: 6, Width: 3, Height: 2, B: 14},
			{P: 256, Width: 4, Height: 4, B: 256}} {
			conformRow(t, ki, g, ran)
		}
		conformRow(t, ki, Shape{P: 8, Width: 4, Height: 2, B: 8}, ran, WithOptions(Options{QueueCap: 2}))
		if ki.Kind == KindAllGather {
			conformRow(t, ki, Shape{P: 6, Width: 3, Height: 2, B: 14}, ran, WithOptions(Options{QueueCap: 2}))
		}
		if ki.Kind == KindAllReduce2D {
			conformRow(t, ki, Shape{Width: 8, Height: 8, B: 16}, ran)
			pl, err := plan.Compile(plan.Request{Kind: KindAllReduce2D, Alg2D: Auto2D, Width: 8, Height: 8, B: 16})
			if err != nil {
				t.Fatal(err)
			}
			if pl.Alg2D == core.Split && rowsFloodStreamed(pl.Spec, 8, 8) {
				ran["allreduce2d/split/star-stream"] = true
			}
		}
	}
	for _, schedule := range []string{"reducescatter/ring", "reducescatter/ring-stream", "reducescatter/autogen", "reducescatter/tree", "allgather/ring", "allgather/star", "allgather/gather-flood", "allgather/star-stream", "allreduce2d/split", "allreduce2d/split/star-stream", "allreduce-midroot/fold",
		"reduce2d/snake-autogen", "allreduce2d/snake-autogen"} {
		if !ran[schedule] {
			t.Errorf("no shape of the walk ran %s (ran %v)", schedule, ran)
		}
	}
}

// rowsFloodStreamed reports whether every row of a compiled grid program
// ends with the streamed middle root's flood: the row's middle PE's last W
// ops are W − 1 full-duplex OpSendRecvStore ops, each flooding the chunk the
// op before took, and one OpSend, all out on one color — no other AllGather
// ends so (the plan package's rowsStream, which checks the takes too, is
// tested against all four).
func rowsFloodStreamed(spec *fabric.Spec, w, h int) bool {
	for y := 0; y < h; y++ {
		ops := spec.Program(mesh.Coord{X: w / 2, Y: y}).Ops
		if w < 2 || len(ops) < w || ops[len(ops)-1].Kind != fabric.OpSend {
			return false
		}
		for _, op := range ops[len(ops)-w : len(ops)-1] {
			if op.Kind != fabric.OpSendRecvStore || op.OutColor != ops[len(ops)-1].Color {
				return false
			}
		}
	}
	return true
}

// conformRow is TestKindTableConformance for one row at geometry g, run
// under opts; ran collects the kind/algorithm pairs the shapes resolved to
// (the 2D algorithm for a grid kind).
func conformRow(t *testing.T, ki *plan.KindInfo, g Shape, ran map[string]bool, opts ...Option) {
	t.Helper()
	ctx := context.Background()
	base := g
	base.Kind = ki.Kind
	shapes := []Shape{base}
	if ki.Algs != nil || ki.Algs2D != nil {
		base.Alg, base.Alg2D = Auto, Auto2D
		shapes = []Shape{base}
		for _, a := range ki.Algs {
			sh := base
			sh.Alg = a
			shapes = append(shapes, sh)
		}
		for _, a := range ki.Algs2D {
			sh := base
			sh.Alg2D = a
			shapes = append(shapes, sh)
		}
		bad := base
		bad.Alg, bad.Alg2D = "warp", "diag"
		if err := bad.Validate(); !errors.Is(err, ErrBadShape) {
			t.Errorf("%s: Validate of an algorithm outside the family: %v", ki.Kind, err)
		}
	}
	if ki.HasOp {
		var ops []Shape
		for _, sh := range shapes {
			for _, op := range []ReduceOp{Sum, Max, Min} {
				sh.Op = op
				ops = append(ops, sh)
			}
		}
		shapes = ops
	}
	for _, sh := range shapes {
		name := fmt.Sprintf("%s/%s/%s/%v p=%d %dx%d b=%d", sh.Kind, sh.Alg, sh.Alg2D, sh.Op, sh.P, sh.Width, sh.Height, sh.B)
		if err := sh.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", name, err)
			continue
		}
		seq := 0
		inputs := sh.Inputs(func(n int) []float32 {
			v := make([]float32, n)
			for i := range v {
				seq++
				v[i] = float32(seq * 7 % 13)
			}
			return v
		})
		if err := sh.checkInputs(inputs); err != nil {
			t.Errorf("%s: inputs of the kind's own layout rejected: %v", name, err)
		}
		if _, err := Run(ctx, sh, append(inputs, inputs[0]), opts...); !errors.Is(err, ErrBadShape) {
			t.Errorf("%s: Run with one input too many: %v, want ErrBadShape", name, err)
		}
		rep, err := Run(ctx, sh, inputs, opts...)
		if err != nil {
			t.Errorf("%s: Run: %v", name, err)
			continue
		}
		// Predict resolves Auto exactly as Compile does: one path, one
		// number, bit for bit — and a finite one.
		if want := Predict(sh, opts...); math.Float64bits(rep.Predicted) != math.Float64bits(want) || math.IsInf(want, 0) || math.IsNaN(want) {
			t.Errorf("%s: Report.Predicted %v, Predict(sh) %v", name, rep.Predicted, want)
		}
		checkResult(t, name, sh, ki, hostResult(sh, ki, inputs), rep)
		res := sh.Resolve(opts...)
		alg := string(res.Alg)
		if ki.Grid {
			alg = string(res.Alg2D)
		}
		ran[string(res.Kind)+"/"+alg] = true
	}
}

// TestShapeResolve: Resolve is the compiler's own choice made public. For
// every row of the kind table, spelled Auto and under each algorithm the row
// accepts, at a few geometries and ramp latencies, it names the row and the
// algorithm plan.Compile builds, is idempotent and valid, never leaves Auto
// on a kind that has algorithms, and leaves a concrete spelling alone. The
// choice ranges over every schedule of the kind: an Auto AllReduce may move to
// the middle-root row (nothing else moves), ReduceScatter and AllGather — which
// take no algorithm — come back saying a ring or through the root, and the kinds
// with one schedule come back untouched. It changes nothing about the
// estimate: Predict resolves by itself.
func TestShapeResolve(t *testing.T) {
	moved := 0
	for i := range plan.Kinds {
		ki := &plan.Kinds[i]
		algs := append([]Algorithm{Auto}, ki.Algs...)
		algs2D := append([]Algorithm2D{Auto2D}, ki.Algs2D...)
		for _, g := range []struct{ p, w, h, b int }{{2, 2, 1, 2}, {6, 3, 2, 14}, {33, 5, 7, 1}, {64, 8, 8, 512}} {
			for _, tr := range []int{-1, 0, 7} {
				opt := WithOptions(Options{TR: tr})
				for _, alg := range algs {
					for _, alg2D := range algs2D {
						sh := Shape{Kind: ki.Kind, Alg: alg, Alg2D: alg2D, P: g.p, Width: g.w, Height: g.h, B: g.b, Op: Sum}
						if sh.Validate() != nil {
							continue // chunked kinds and the ring need B >= P
						}
						name := fmt.Sprintf("%s/%s/%s p=%d %dx%d b=%d tr=%d", sh.Kind, alg, alg2D, g.p, g.w, g.h, g.b, tr)
						res := sh.Resolve(opt)
						if again := res.Resolve(opt); again != res {
							t.Errorf("%s: Resolve is not idempotent: %+v then %+v", name, res, again)
						}
						if err := res.Validate(); err != nil {
							t.Errorf("%s: Resolve returned %+v: %v", name, res, err)
						}
						rki := plan.InfoOf(res.Kind)
						if rki.Algs != nil && res.Alg == Auto || rki.Algs2D != nil && res.Alg2D == Auto2D {
							t.Errorf("%s: Resolve left Auto in %+v", name, res)
						}
						switch {
						case ki.Chunked && ki.HasOp: // ReduceScatter: the ring phase, streamed or not, or a reduce tree and the Scatter
							if res.Alg != Ring && res.Alg != core.RingStream && !slices.Contains(plan.InfoOf(KindReduce).Algs, res.Alg) {
								t.Errorf("%s: Resolve names schedule %q", name, res.Alg)
							}
						case ki.Kind == KindAllGather: // the ring phase, the star through the middle PE, or the gather-flood
							if !slices.Contains(core.AllGatherPatterns, res.Alg) {
								t.Errorf("%s: Resolve names schedule %q", name, res.Alg)
							}
						case ki.Algs == nil || alg != Auto:
							if res.Alg != sh.Alg {
								t.Errorf("%s: Resolve changed Alg %q to %q", name, sh.Alg, res.Alg)
							}
						}
						if concrete := ki.Algs2D == nil || alg2D != Auto2D; concrete && res.Alg2D != sh.Alg2D {
							t.Errorf("%s: Resolve changed Alg2D %q to %q", name, sh.Alg2D, res.Alg2D)
						}
						if res.Kind != sh.Kind {
							moved++
							if sh.Kind != KindAllReduce || alg != Auto || res.Kind != KindAllReduceMidRoot {
								t.Errorf("%s: Resolve moved the shape to %s", name, res.Kind)
							}
						}
						rest := res
						rest.Kind, rest.Alg, rest.Alg2D = sh.Kind, sh.Alg, sh.Alg2D
						if rest != sh {
							t.Errorf("%s: Resolve touched more than kind and algorithm: %+v", name, res)
						}
						p, err := plan.Compile(sh.request(Options{TR: tr}))
						if err != nil {
							t.Errorf("%s: Compile: %v", name, err)
							continue
						}
						// A plan is keyed as spelled and carries what it lowered.
						if p.Key.Kind != sh.Kind || p.Kind != res.Kind || p.Alg2D != res.Alg2D ||
							(rki.Algs != nil || rki.Chunked) && p.Alg != res.Alg {
							t.Errorf("%s: Resolve says %s %q/%q, Compile built %s %q/%q under a %s key",
								name, res.Kind, res.Alg, res.Alg2D, p.Kind, p.Alg, p.Alg2D, p.Key.Kind)
						}
						// Spelled Auto or resolved, a shape has one estimate: the plan's.
						if got, want := Predict(sh, opt), Predict(res, opt); math.Float64bits(got) != math.Float64bits(want) || got != p.Predicted {
							t.Errorf("%s: Predict %v as spelled, %v resolved, the plan's %v", name, got, want, p.Predicted)
						}
					}
				}
			}
		}
	}
	if moved == 0 {
		t.Error("no Auto AllReduce of the walk resolved to the middle root")
	}
}
