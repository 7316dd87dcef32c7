package serve

import (
	"errors"
	"strings"
	"testing"

	wse "repro"
	"repro/internal/plan"
)

// TestKindTableConformance: every row of the kind table crosses the wire
// and comes back the same Shape, under either of its names, and names the
// table does not hold are a 400-class error.
func TestKindTableConformance(t *testing.T) {
	for i := range plan.Kinds {
		ki := &plan.Kinds[i]
		sh := wse.Shape{Kind: ki.Kind, Alg: wse.Auto, Alg2D: wse.Auto2D, P: 6, Width: 3, Height: 2, B: 14, Op: wse.Max}
		if len(ki.Algs) > 0 {
			sh.Alg = ki.Algs[len(ki.Algs)-1]
		}
		if len(ki.Algs2D) > 0 {
			sh.Alg2D = ki.Algs2D[len(ki.Algs2D)-1]
		}
		sw := WireShape(sh)
		if back, err := ShapeOf(sw); err != nil || back != sh {
			t.Errorf("%s: Shape -> wire -> Shape = %+v, %v; want %+v", ki.Kind, back, err, sh)
		}
		sw.Kind, sw.Op = strings.ToUpper(ki.Name), "MAX"
		if back, err := ShapeOf(sw); err != nil || back != sh {
			t.Errorf("%s: wire kind %q = %+v, %v; want %+v", ki.Kind, sw.Kind, back, err, sh)
		}
	}
	for _, sw := range []ShapeWire{{Kind: "transpose", P: 4, B: 4}, {Kind: "reduce", P: 4, B: 4, Op: "xor"}} {
		if _, err := ShapeOf(sw); !errors.Is(err, wse.ErrBadShape) {
			t.Errorf("ShapeOf(%+v) = %v, want ErrBadShape", sw, err)
		}
	}
}
