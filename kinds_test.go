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

// TestShapeResolve: Resolve is the compiler's own algorithm choice made
// public. For every row of the kind table, spelled Auto and under each
// algorithm the row accepts, at a few geometries and ramp latencies, it
// names what plan.Compile builds, is idempotent, never leaves Auto on a
// kind that has algorithms, leaves algorithm-free kinds untouched, and
// changes nothing about the estimate: Predict resolves by itself.
func TestShapeResolve(t *testing.T) {
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
						if ki.Algs != nil && res.Alg == Auto || ki.Algs2D != nil && res.Alg2D == Auto2D {
							t.Errorf("%s: Resolve left Auto in %+v", name, res)
						}
						if concrete := ki.Algs == nil || alg != Auto; concrete && res.Alg != sh.Alg {
							t.Errorf("%s: Resolve changed Alg %q to %q", name, sh.Alg, res.Alg)
						}
						if concrete := ki.Algs2D == nil || alg2D != Auto2D; concrete && res.Alg2D != sh.Alg2D {
							t.Errorf("%s: Resolve changed Alg2D %q to %q", name, sh.Alg2D, res.Alg2D)
						}
						rest := res
						rest.Alg, rest.Alg2D = sh.Alg, sh.Alg2D
						if rest != sh {
							t.Errorf("%s: Resolve touched more than the algorithm: %+v", name, res)
						}
						p, err := plan.Compile(sh.request(Options{TR: tr}))
						if err != nil {
							t.Errorf("%s: Compile: %v", name, err)
							continue
						}
						// A plan carries the algorithm fields its kind consults.
						if ki.Algs != nil && p.Alg != res.Alg || ki.Algs2D != nil && p.Alg2D != res.Alg2D {
							t.Errorf("%s: Resolve says %q/%q, Compile built %q/%q", name, res.Alg, res.Alg2D, p.Alg, p.Alg2D)
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
}
