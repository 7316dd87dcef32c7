package wse

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/plan"
)

// TestKindTableConformance drives the public verbs off the kind table
// (internal/plan/kinds.go): every row, under every algorithm it accepts,
// validates, rejects an algorithm outside its family as ErrBadShape, takes
// inputs built from the row's layout, and runs with Report.Predicted equal
// to Predict of the same concrete shape. The key, layout and compile side
// of the same walk is the plan package's test of the same name.
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
			// Compile predicts on the resolved request and Predict on the
			// shape as spelled, so the two meet on concrete algorithms.
			if auto := ki.Algs != nil && sh.Alg == Auto || ki.Algs2D != nil && sh.Alg2D == Auto2D; !auto && rep.Predicted != Predict(sh) {
				t.Errorf("%s: Report.Predicted %v, Predict %v", name, rep.Predicted, Predict(sh))
			}
		}
	}
}
