package wse

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/plan"
)

// TestKindTableConformance drives the public verbs off the kind table
// (internal/plan/kinds.go): every row, under every algorithm it accepts,
// validates, rejects an algorithm outside its family as ErrBadShape, takes
// inputs built from the row's layout, and runs with Report.Predicted equal
// to Predict of the shape as spelled — Auto and the middle root included. The
// key, layout and compile side of the same walk is the plan package's test
// of the same name.
func TestKindTableConformance(t *testing.T) {
	ctx := context.Background()
	ones := func(n int) []float32 { return slices.Repeat([]float32{1}, n) }
	for i := range plan.Kinds {
		ki := &plan.Kinds[i]
		base := Shape{Kind: ki.Kind, P: 6, Width: 3, Height: 2, B: 14, Op: Min}
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
		for _, sh := range shapes {
			name := string(sh.Kind) + "/" + string(sh.Alg) + "/" + string(sh.Alg2D)
			if err := sh.Validate(); err != nil {
				t.Errorf("%s: Validate: %v", name, err)
				continue
			}
			inputs := sh.Inputs(ones)
			if err := sh.checkInputs(inputs); err != nil {
				t.Errorf("%s: inputs of the kind's own layout rejected: %v", name, err)
			}
			if _, err := Run(ctx, sh, append(inputs, ones(sh.B))); !errors.Is(err, ErrBadShape) {
				t.Errorf("%s: Run with one input too many: %v, want ErrBadShape", name, err)
			}
			rep, err := Run(ctx, sh, inputs)
			if err != nil {
				t.Errorf("%s: Run: %v", name, err)
				continue
			}
			// Predict resolves Auto exactly as Compile does: one path, one
			// number, bit for bit — and a finite one.
			if want := Predict(sh); math.Float64bits(rep.Predicted) != math.Float64bits(want) || math.IsInf(want, 0) || math.IsNaN(want) {
				t.Errorf("%s: Report.Predicted %v, Predict(sh) %v", name, rep.Predicted, want)
			}
		}
	}
}

// TestShapeResolve: Resolve is the compiler's own choice made public. For
// every row of the kind table, spelled Auto and under each algorithm the row
// accepts, at a few geometries and ramp latencies, it names the row and the
// algorithm plan.Compile builds, is idempotent and valid, never leaves Auto
// on a kind that has algorithms, and leaves a concrete spelling alone. The
// choice ranges over every schedule of the kind: an Auto AllReduce may move to
// the middle-root row (nothing else moves), ReduceScatter and AllGather — which
// take no algorithm — come back saying ring or through the root, and the kinds
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
						case ki.Chunked && ki.HasOp: // ReduceScatter: the ring phase, or a reduce tree and the Scatter
							if res.Alg != Ring && !slices.Contains(plan.InfoOf(KindReduce).Algs, res.Alg) {
								t.Errorf("%s: Resolve names schedule %q", name, res.Alg)
							}
						case ki.Kind == KindAllGather: // the ring phase, or the Gather's star and the Broadcast
							if res.Alg != Ring && res.Alg != Star {
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
